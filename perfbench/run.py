"""Benchmark of the amocount counting engine.

One operation is what ``amocount count FILE`` does without the disk:
``parse_instance_text`` of an in-memory instance document, then
``count_session``.  Operations run back to back in this one process (a
closed loop with one caller) over a pool of instances generated from
``--seed`` outside the clock.

    python3 perfbench/run.py --workload dense_amo --seed 1 --seconds 20 --trace 0

``--trace 0`` times the loop untraced and reports the end-to-end metrics.
Their times are scaled to a reference machine speed: the host's speed
drifts by tens of percent within minutes, so each operation (and each step
of set-up) is timed between two runs of a fixed probe (``speed.py``) and its
wall time is multiplied by ``REFERENCE_S`` over the probes' mean time.  The
summary line also gives the unscaled median and set-up time.

``--trace 1`` alternates untraced and traced operations on whole passes
over the pool and reports the per-layer metrics.  Either way the counts
are checked outside the clock, a summary line is printed, and the last line
of standard output is one JSON object.  The exit code is 1 when a check
failed and 2 when the engine cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import speed
import workloads
from tracer import PARSE, ROOT, STATS, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Set-up repeats at least MIN_SETUP_REPS times, and more (up to
# MAX_SETUP_REPS) while less than SETUP_BUDGET_S has been spent, so that a
# quick set-up is timed often enough for a steady median.
MIN_SETUP_REPS, MAX_SETUP_REPS, SETUP_BUDGET_S = 3, 15, 4.0
TAIL_BEYOND = 10  # samples required beyond the reported tail percentile
PROBE_OPS = 6  # traced operations after an untraced run, for the summary line


def import_engine():
    """A fresh import of the engine package from this checkout."""
    for name in [m for m in sys.modules if m == "amocount" or m.startswith("amocount.")]:
        del sys.modules[name]
    amo = importlib.import_module("amocount")
    importlib.import_module("amocount.instancefile")
    return amo


def setup(name, seed):
    """Import the engine and build the pool, several times.  Returns the
    median wall time and the median time scaled to the reference speed."""
    walls, scaled, pool, problems = [], [], None, []
    while len(walls) < MAX_SETUP_REPS and (
        len(walls) < MIN_SETUP_REPS or sum(walls) < SETUP_BUDGET_S
    ):
        clock = speed.SpeedClock()
        amo = import_engine()
        clock.step()
        built = workloads.build(amo, name, seed, step=clock.step)
        clock.step()
        walls.append(clock.wall)
        scaled.append(clock.scaled)
        if pool is not None and built != pool:
            problems.append("instance generation is not deterministic for one seed")
        pool = built
    return amo, pool, len(walls), statistics.median(walls), statistics.median(scaled), problems


def tail(times):
    """Highest percentile with TAIL_BEYOND samples beyond it, and its value."""
    ordered = sorted(times, reverse=True)
    if len(ordered) <= TAIL_BEYOND:
        return 100.0, ordered[0]
    return 100.0 * (1 - TAIL_BEYOND / len(ordered)), ordered[TAIL_BEYOND]


def ratio(a, b):
    return a / b if b else 0.0


# Per-layer metrics: name -> (unit, layers the value needs, value from the
# tracer and the number of traced operations).  Times are self times.
def _ms(layer):
    return lambda t, ops: 1000.0 * t.self_s[layer] / ops


def _calls(layer):
    return lambda t, ops: t.calls[layer] / ops


PER_LAYER = {}
for _layer in (
    "graphs.lbfs",
    "graphs.induced",
    "graphs.clique_tree",
    "graphs.is_chordal",
    "graphs.maximal_cliques",
    "counting.psi",
    "counting.phi",
):
    PER_LAYER[f"{_layer}_ms"] = ("ms/op", (_layer,), _ms(_layer))
    PER_LAYER[f"{_layer}_calls"] = ("count/op", (_layer,), _calls(_layer))
PER_LAYER.update({
    "graphs.lbfs_vertices": (
        "count/op", ("graphs.lbfs",), lambda t, ops: t.counters["lbfs_vertices"] / ops),
    "graphs.lbfs_reject_frac": (
        "fraction", ("graphs.lbfs",),
        lambda t, ops: ratio(t.counters["lbfs_rejects"], t.calls["graphs.lbfs"])),
    "counting.subproblem_calls": ("count/op", ("counting",), _calls("counting")),
    "counting.subproblems": ("count/op", (STATS,), lambda t, ops: t.counters["subproblems"] / ops),
    "counting.memo_hit_frac": (
        "fraction", ("counting", STATS),
        lambda t, ops: ratio(t.counters["memo_hits"], t.calls["counting"])),
    "counting.induced_per_subproblem": (
        "ratio", (STATS, "graphs.induced"),
        lambda t, ops: ratio(t.calls["graphs.induced"], t.counters["subproblems"])),
    "counting.self_ms": ("ms/op", ("counting",), _ms("counting")),
    "counting.psi_max_width": ("vertices", ("counting.psi",), lambda t, ops: t.max_psi_width),
    "counting.psi_states": (
        "count/op", ("counting.psi",), lambda t, ops: t.counters["psi_states"] / ops),
    "mec.validate_ms": ("ms/op", ("mec.validate",), _ms("mec.validate")),
    "mec.components_ms": ("ms/op", ("mec.components",), _ms("mec.components")),
    "instancefile.parse_ms": ("ms/op", (), _ms(PARSE)),
})


class Engine:
    """The two public calls one operation makes, with and without tracing."""

    def __init__(self, amo):
        self.parse = amo.instancefile.parse_instance_text
        self.count_session = amo.count_session

    def op(self, text):
        return self.count_session(self.parse(text).instance).count

    def traced_op(self, tracer, text):
        def run():
            return self.count_session(tracer.span(PARSE, self.parse, text).instance)

        with tracer:
            result = tracer.span(ROOT, run)
        tracer.add_session_stats(result)
        return result.count


def attempt(fn, *args):
    """``fn(*args)``, or None when it raises: a failed operation."""
    try:
        return fn(*args)
    except Exception:  # noqa: BLE001 - every failure is counted, none stops the run
        return None


def timed_loop(engine, texts, seconds):
    """Operations back to back over the pool, with the speed probe between
    them, until ``seconds`` have passed.  Returns the results and each
    operation's wall time and scaled time."""
    results, walls, scaled = [], [], []
    deadline = time.perf_counter() + seconds
    clock = speed.SpeedClock()
    i = 0
    while True:
        count = attempt(engine.op, texts[i])
        wall, fixed = clock.step()
        walls.append(wall)
        scaled.append(fixed)
        results.append((i, count))
        i = (i + 1) % len(texts)
        if time.perf_counter() >= deadline:
            return results, walls, scaled


def traced_passes(engine, tracer, texts, seconds):
    """Whole passes over the pool, each instance once untraced and once
    traced (alternating which goes first), so that layer counts repeat
    exactly for one seed.  Returns the results and the seconds spent
    untraced and traced."""
    results, spent = [], [0.0, 0.0]
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for i, text in enumerate(texts):
            for traced in (False, True) if i % 2 else (True, False):
                t0 = time.perf_counter()
                count = attempt(engine.traced_op, tracer, text) if traced else attempt(engine.op, text)
                spent[traced] += time.perf_counter() - t0
                results.append((i, count))
        now = time.perf_counter()
        if now + (now - pass_start) > start + seconds:
            return results, spent


def verify(amo, engine, name, seed, pool, results):
    """Check every operation's count; return (failed operations, zero-count
    operations, reference counts, problems found by the instance-level checks)."""
    problems = []
    reference = [None] * len(pool)
    for i, count in results:
        if reference[i] is None:
            reference[i] = count
    wrong = set()
    for i, (text, meta) in enumerate(pool):
        if reference[i] is None:  # not reached in the loop, or it always raised
            reference[i] = attempt(engine.op, text)
        expected = checks.expected_count(meta)
        if reference[i] is None or reference[i] <= 0 or expected not in (None, reference[i]):
            wrong.add(i)
            problems.append(f"count {reference[i]} on {meta}, expected {expected or 'a positive count'}")
    failed = sum(1 for i, count in results if i in wrong or count != reference[i])
    zeros = sum(1 for _, count in results if count == 0)
    if seed == workloads.DEFAULT_SEED:
        pinned = json.loads((HERE / "digests.json").read_text())[name]
        if checks.digest(reference) != pinned:
            problems.append(f"count digest {checks.digest(reference)} differs from pinned {pinned}")
    smallest = min(range(len(pool)), key=lambda i: (pool[i][1]["claims"], pool[i][1]["n"]))
    problems += checks.edge_split(amo, engine.parse(pool[smallest][0]), seed)
    problems += checks.path_count(amo, 60 + seed % 61)
    problems += checks.oracle_agreement(amo, name, seed)
    return failed, zeros, reference, problems


def layer_metrics(tracer, ops, spent):
    metrics = {}
    for name, (unit, layers, value) in PER_LAYER.items():
        present = not set(layers) & tracer.absent
        metrics[name] = {"value": value(tracer, ops) if present else None, "unit": unit}
    total = sum(tracer.self_s.values())
    metrics["trace.overhead_frac"] = {"value": ratio(spent[1], spent[0]) - 1, "unit": "fraction"}
    metrics["trace.coverage_frac"] = {
        "value": ratio(total - tracer.self_s[ROOT], total), "unit": "fraction"}
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "amocount" / "__init__.py").is_file():
        print(f"engine sources not found in {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    amo, pool, setup_reps, setup_wall, setup_s, problems = setup(args.workload, args.seed)
    if Path(amo.__file__).resolve().parent != SRC / "amocount":
        print(f"imported the engine from {amo.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    engine = Engine(amo)
    texts = [text for text, _ in pool]

    attempt(engine.op, texts[0])  # warm-up, outside the clock
    gc.collect()
    tracer = Tracer()
    if args.trace:
        results, spent = traced_passes(engine, tracer, texts, args.seconds)
    else:
        results, walls, times = timed_loop(engine, texts, args.seconds)
        # A few traced operations outside the clock, for the summary line.
        for text in texts[:PROBE_OPS]:
            attempt(engine.traced_op, tracer, text)

    failed_ops, zeros, reference, found = verify(amo, engine, args.workload, args.seed, pool, results)
    problems += found
    for message in problems:
        print(f"check failed: {message}", file=sys.stderr)
    # The instance-level checks count as one more attempted operation.
    attempted = len(results) + 1
    failed = failed_ops + bool(problems)
    zero_count_frac = ratio(zeros, len(results))
    correct = failed == 0 and zeros == 0

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": len(results),
        "error_rate": ratio(failed, attempted),
        "zero_count_frac": zero_count_frac,
        "counting.psi_max_width": tracer.max_psi_width,
        "graphs.lbfs_reject_frac": round(
            ratio(tracer.counters["lbfs_rejects"], tracer.calls["graphs.lbfs"]), 4),
        "digest": checks.digest(reference),
    }
    if args.trace:
        metrics = layer_metrics(tracer, len(results) // 2, spent)
        summary["absent_layers"] = sorted(tracer.absent)
    else:
        pct, tail_s = tail(times)
        summary["tail_percentile"] = round(pct, 2)
        # Unscaled figures, for comparison with the scaled metrics.
        summary["wall_ms_p50"] = round(1000.0 * statistics.median(walls), 3)
        summary["wall_setup_s"] = round(setup_wall, 4)
        summary["setup_reps"] = setup_reps
        metrics = {
            "count_ms_p50": {"value": 1000.0 * statistics.median(times), "unit": "ms"},
            "count_ms_tail": {"value": 1000.0 * tail_s, "unit": "ms"},
            "instances_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
            "success_rate": {"value": 1.0 - ratio(failed, attempted), "unit": "fraction"},
        }
    print(" ".join(f"{k}={v}" for k, v in summary.items()))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
