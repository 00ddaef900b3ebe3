"""Benchmark harness: seeded instances, wall-clock timing, CSV output.

Timing wraps the counting session only; generation happens outside the
clock.  Per-run records go to the main CSV, mean and median aggregates per
(n, k) cell to a sibling ``*_agg.csv`` file.
"""

from __future__ import annotations

import csv
import math
import statistics
import time
from pathlib import Path

from . import __version__
from .counting import count_session
from .generators import (
    GenConfig,
    GenerationError,
    gen_background,
    grow_background,
    random_chordal_with_stats,
)
from .mec import BackgroundKnowledge, MecInstance, PartiallyDirectedGraph

CSV_FIELDS = (
    "n",
    "k",
    "knowledge_size",
    "seed",
    "time_ms",
    "count_decimal_digits",
    "count_is_zero",  # 1 when the count is zero: every clique pick was rejected
    "engine_version",
)
AGG_FIELDS = ("n", "k", "reps", "mean_time_ms", "median_time_ms")
PAIR_FIELDS = (
    "n",
    "k",
    "size_1",
    "size_2",
    "time1_ms",
    "time2_ms",
    "count1_is_zero",  # 1 when K1's count is zero, as count_is_zero in CSV_FIELDS
    "count2_is_zero",
)
PAIR_REPS = 3  # each side of a pair reports the median of this many timings
DRAWS_PER_PAIR = 10  # a comparison gives up after this many draws per wanted pair


def derived_seed(base: int, n: int, k: int, rep: int) -> int:
    return ((base * 1_000_003 + n) * 10_007 + k) * 101 + rep


def make_instance(n: int, k: int | None, seed: int):
    """One seeded benchmark instance: chordal graph plus knowledge.

    Returns ``(instance, graph, p)``: the instance, its undirected graph and
    the edge probability the graph was drawn with.
    """
    g, info = random_chordal_with_stats(GenConfig(n=n, seed=seed))
    if k is None:
        knowledge = BackgroundKnowledge.empty()
    else:
        knowledge = gen_background(g, k, seed + 1)
    graph = PartiallyDirectedGraph(n, g.edges(), ())
    return MecInstance(graph, knowledge), g, info["p"]


def time_count(instance: MecInstance):
    t0 = time.perf_counter()
    result = count_session(instance)
    dt = (time.perf_counter() - t0) * 1000.0
    return result, dt


def _sweep(draws, measure, want, log):
    """Measure ``(label, n, k, seed)`` draws in order until ``want`` rows are
    built or the draws run out.

    ``measure(n, k, seed)`` returns a row and a log detail.  A draw that
    raises is a failure: it is reported and skipped, and the caller decides
    what a partial result is worth.  Returns ``(rows, failures)``.
    """
    rows: list[dict] = []
    failures: list[str] = []
    for label, n, k, s in draws:
        if len(rows) == want:
            break
        try:
            row, detail = measure(n, k, s)
        except Exception as e:  # noqa: BLE001 - keep the sweep alive
            failures.append(f"{label}: {e}")
            if log:
                log(failures[-1])
            continue
        rows.append(row)
        if log:
            log(f"{label}: {detail}")
    return rows, failures


def _write_csv(path, header, rows):
    """One header line, then each row's fields in header order, floats to 3
    decimals."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{row[f]:.3f}" if isinstance(row[f], float) else row[f] for f in header])


def _agg_path(out_csv) -> Path:
    p = Path(out_csv)
    return p.with_name(p.stem + "_agg" + p.suffix)


def run_bench(n_list, k_list, reps: int, seed: int, out_csv, *, log=None):
    """Time ``reps`` seeded instances per (n, k) cell.

    Returns ``(records, aggregates, failures)``: one row per timed instance,
    one per cell, and one message per failed draw.
    """

    def measure(n, k, s):
        instance, _, _ = make_instance(n, k, s)
        result, dt = time_count(instance)
        digits = len(str(result.count))
        row = (n, k, len(instance.knowledge), s, dt, digits, int(result.count == 0), __version__)
        return dict(zip(CSV_FIELDS, row)), f"{dt:.1f} ms, {digits} digits"

    draws = [
        (f"n={n} k={k} rep={rep}", n, k, derived_seed(seed, n, k, rep))
        for n in n_list
        for k in k_list
        for rep in range(reps)
    ]
    records, failures = _sweep(draws, measure, len(draws), log)

    cells: dict[tuple, list] = {}
    for r in records:
        cells.setdefault((r["n"], r["k"]), []).append(r["time_ms"])
    aggregates = [
        dict(zip(AGG_FIELDS, (n, k, len(times), statistics.fmean(times), statistics.median(times))))
        for (n, k), times in sorted(cells.items())
    ]

    _write_csv(out_csv, CSV_FIELDS, records)
    _write_csv(_agg_path(out_csv), AGG_FIELDS, aggregates)
    return records, aggregates, failures


def run_pair_comparison(n_list, k_list, pairs: int, seed: int, out_csv, *, log=None):
    """Compare each base knowledge set against its grown superset.

    Draw i takes ``n_list[i % N]`` and ``k_list[(i + i // L) % K]``, where N
    and K are the list lengths and L their least common multiple.  Each run
    of L draws meets L distinct (n, k) cells, and the k index moves one step
    further after each run, so every cell comes up within N * K draws even
    when the lengths share a factor (with coprime lengths the first L draws
    already hold every cell).  A draw's base set K1 is generated, K2 grows
    it without moving the clique parameter, and both instances are timed
    (median of ``PAIR_REPS``).  A draw that cannot grow is a failure, and
    the run stops after ``DRAWS_PER_PAIR`` draws per wanted pair.  Rows: n,
    k, size_1, size_2, time1_ms, time2_ms, count1_is_zero, count2_is_zero.
    Returns ``(rows, failures)``.
    """

    def median_run(instance):
        runs = [time_count(instance) for _ in range(PAIR_REPS)]
        return runs[0][0], statistics.median(dt for _, dt in runs)

    def measure(n, k, s):
        base, g, _ = make_instance(n, k, s)
        k1 = base.knowledge
        k2, grew = grow_background(g, k1, s + 2)
        if not grew:
            raise GenerationError("no admissible extra edge")
        grown = MecInstance(base.graph, k2)
        r1, t1 = median_run(base)
        r2, t2 = median_run(grown)
        zeros = (int(r1.count == 0), int(r2.count == 0))
        row = dict(zip(PAIR_FIELDS, (n, k, len(k1), len(k2), t1, t2, *zeros)))
        return row, f"|K1|={len(k1)} |K2|={len(k2)} t1={t1:.1f} ms t2={t2:.1f} ms"

    draws = []
    lcm = math.lcm(len(n_list), len(k_list))
    for i in range(DRAWS_PER_PAIR * pairs):
        n, k = n_list[i % len(n_list)], k_list[(i + i // lcm) % len(k_list)]
        draws.append((f"n={n} k={k}", n, k, derived_seed(seed, n, k, i)))
    rows, failures = _sweep(draws, measure, pairs, log)
    _write_csv(out_csv, PAIR_FIELDS, rows)
    return rows, failures
