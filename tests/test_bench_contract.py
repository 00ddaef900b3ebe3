"""The engine keeps what the benchmark in ``perfbench/`` relies on.

The benchmark's tracer hooks engine callables by module path and name; a
layer whose hooks all miss is reported as absent and its metrics as null,
while the run still exits 0.  These tests catch that before a benchmark run
does: every traced layer must resolve, and a short traced run must print
finite numbers for every metric.
"""

import importlib
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


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
