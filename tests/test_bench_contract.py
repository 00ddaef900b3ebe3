"""The engine keeps what the benchmark in ``perfbench/`` relies on.

The benchmark's tracer hooks engine callables by module path and name; a
layer whose hooks all miss is reported as absent and its metrics as null,
while the run still exits 0.  These tests catch that before a benchmark run
does: every traced layer must resolve, a short traced run must print
finite numbers for every metric, and the set-up and correctness checks of
every workload must run clean.
"""

import importlib
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_has_a_hook_in_the_engine():
    tracer = load_tracer()
    resolved = {layer: [] for _, _, layer in tracer.HOOKS}
    for path, attr, layer in tracer.HOOKS:
        module, _, cls = path.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls, None)
        if callable(getattr(owner, attr, None)):
            resolved[layer].append(f"{path}.{attr}")
    assert [layer for layer, hooks in resolved.items() if not hooks] == []


def test_short_traced_run_reports_every_metric():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "psi_wide",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.strip().splitlines()
    assert "absent_layers=[]" in lines[0]
    result = json.loads(lines[-1])
    assert result["correct"] is True
    bad = {
        name: m["value"] for name, m in result["metrics"].items()
        if isinstance(m["value"], bool)
        or not isinstance(m["value"], (int, float))
        or not math.isfinite(m["value"])
    }
    assert bad == {}


@pytest.mark.parametrize("name", WORKLOADS)
def test_set_up_and_checks_run_clean_on_every_workload(name, monkeypatch):
    # run.py prints its result line last and catches engine errors only inside
    # timed operations, so an error here would cost a run its result line.
    monkeypatch.syspath_prepend(str(BENCH))
    checks = importlib.import_module("checks")
    workloads = importlib.import_module("workloads")
    amo = importlib.import_module("amocount")
    parse = importlib.import_module("amocount.instancefile").parse_instance_text
    seed = workloads.DEFAULT_SEED
    pool = workloads.build(amo, name, seed, workloads.ORACLE_SPECS[name])
    assert checks.oracle_agreement(amo, name, seed) == []
    assert checks.path_count(amo, 60) == []
    assert checks.edge_split(amo, parse(pool[0][0]), seed) == []
