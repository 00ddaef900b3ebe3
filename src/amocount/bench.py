"""Benchmark harness: seeded instances, wall-clock timing, CSV output.

Timing wraps the counting session only; generation happens outside the
clock.  Per-run records go to the main CSV, mean and median aggregates per
(n, k) cell to a sibling ``*_agg.csv`` file.
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .counting import count_session
from .generators import GenConfig, gen_background, grow_background, random_chordal
from .mec import BackgroundKnowledge, MecInstance, PartiallyDirectedGraph

CSV_FIELDS = (
    "n",
    "k",
    "knowledge_size",
    "seed",
    "time_ms",
    "count_decimal_digits",
    "count_is_zero",
    "engine_version",
)
AGG_FIELDS = ("n", "k", "reps", "mean_time_ms", "median_time_ms")
PAIR_FIELDS = ("n", "k", "size_1", "size_2", "time1_ms", "time2_ms")


@dataclass(frozen=True)
class BenchRecord:
    n: int
    k: int
    knowledge_size: int
    seed: int
    time_ms: float
    count_decimal_digits: int
    count_is_zero: bool  # a zero count means the sweeps only rejected
    engine_version: str = __version__

    def row(self):
        return [
            self.n,
            self.k,
            self.knowledge_size,
            self.seed,
            f"{self.time_ms:.3f}",
            self.count_decimal_digits,
            int(self.count_is_zero),
            self.engine_version,
        ]


def derived_seed(base: int, n: int, k: int, rep: int) -> int:
    return ((base * 1_000_003 + n) * 10_007 + k) * 101 + rep


def make_instance(n: int, k: int | None, seed: int):
    """One seeded benchmark instance: chordal graph plus knowledge."""
    g = random_chordal(GenConfig(n=n, seed=seed))
    if k is None:
        knowledge = BackgroundKnowledge.empty()
    else:
        knowledge = gen_background(g, k, seed + 1)
    graph = PartiallyDirectedGraph(n, g.edges(), ())
    return MecInstance(graph, knowledge), g


def time_count(instance: MecInstance, *, psi_cap=None):
    t0 = time.perf_counter()
    result = count_session(instance, psi_cap=psi_cap)
    dt = (time.perf_counter() - t0) * 1000.0
    return result, dt


def _write_csv(path, header, rows):
    """One header line, then each row in header order, floats to 3 decimals."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{x:.3f}" if isinstance(x, float) else x for x in row])


def _agg_path(out_csv) -> Path:
    p = Path(out_csv)
    return p.with_name(p.stem + "_agg" + p.suffix)


def run_bench(
    n_list,
    k_list,
    reps: int,
    seed: int,
    out_csv,
    *,
    psi_cap=None,
    log=None,
):
    """Time ``reps`` seeded instances per (n, k) cell.

    Failed cells are reported and skipped; the caller decides what a partial
    result is worth.  Returns ``(records, aggregates, failures)``.
    """
    records: list[BenchRecord] = []
    failures: list[str] = []
    cells: dict[tuple, list] = {}
    for n in n_list:
        for k in k_list:
            for rep in range(reps):
                s = derived_seed(seed, n, k, rep)
                try:
                    instance, _ = make_instance(n, k, s)
                    result, dt = time_count(instance, psi_cap=psi_cap)
                except Exception as e:  # noqa: BLE001 - keep the sweep alive
                    failures.append(f"n={n} k={k} rep={rep}: {e}")
                    if log:
                        log(failures[-1])
                    continue
                rec = BenchRecord(
                    n=n,
                    k=k,
                    knowledge_size=len(instance.knowledge),
                    seed=s,
                    time_ms=dt,
                    count_decimal_digits=len(str(result.count)),
                    count_is_zero=result.count == 0,
                )
                records.append(rec)
                cells.setdefault((n, k), []).append(dt)
                if log:
                    log(f"n={n} k={k} rep={rep}: {dt:.1f} ms, {rec.count_decimal_digits} digits")

    aggregates = []
    for (n, k), times in sorted(cells.items()):
        aggregates.append(
            {
                "n": n,
                "k": k,
                "reps": len(times),
                "mean_time_ms": statistics.fmean(times),
                "median_time_ms": statistics.median(times),
            }
        )

    _write_csv(out_csv, CSV_FIELDS, (rec.row() for rec in records))
    _write_csv(_agg_path(out_csv), AGG_FIELDS, ([a[f] for f in AGG_FIELDS] for a in aggregates))
    return records, aggregates, failures


def run_pair_comparison(
    n_list,
    k_list,
    pairs: int,
    seed: int,
    out_csv,
    *,
    reps: int = 3,
    psi_cap=None,
    log=None,
):
    """Compare each base knowledge set against its grown superset.

    For every pair the base set K1 is generated, K2 grows it without moving
    the clique parameter, and both instances are timed (median of ``reps``).
    Rows: n, k, size_1, size_2, time1_ms, time2_ms.
    """
    rows = []
    failures = []
    i = 0
    while len(rows) < pairs:
        n = n_list[i % len(n_list)]
        k = k_list[i % len(k_list)]
        s = derived_seed(seed, n, k, i)
        i += 1
        try:
            g = random_chordal(GenConfig(n=n, seed=s))
            k1 = gen_background(g, k, s + 1)
            k2, grew = grow_background(g, k1, s + 2)
            if not grew:
                failures.append(f"n={n} k={k}: no admissible extra edge")
                continue
            graph = PartiallyDirectedGraph(n, g.edges(), ())
            t1 = statistics.median(
                time_count(MecInstance(graph, k1), psi_cap=psi_cap)[1] for _ in range(reps)
            )
            t2 = statistics.median(
                time_count(MecInstance(graph, k2), psi_cap=psi_cap)[1] for _ in range(reps)
            )
        except Exception as e:  # noqa: BLE001
            failures.append(f"n={n} k={k}: {e}")
            if log:
                log(failures[-1])
            continue
        rows.append(
            {
                "n": n,
                "k": k,
                "size_1": len(k1),
                "size_2": len(k2),
                "time1_ms": t1,
                "time2_ms": t2,
            }
        )
        if log:
            log(
                f"n={n} k={k}: |K1|={len(k1)} |K2|={len(k2)}"
                f" t1={t1:.1f} ms t2={t2:.1f} ms"
            )
    if out_csv:
        _write_csv(out_csv, PAIR_FIELDS, ([r[f] for f in PAIR_FIELDS] for r in rows))
    return rows, failures
