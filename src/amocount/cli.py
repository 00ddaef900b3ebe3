"""Command line interface.

Exit codes: 0 success, 1 comparison mismatch or partial benchmark failure,
2 parse or validation error or a file that cannot be read or written, 3
permutation count past its down-set budget, oracle cap or recursion limit
exceeded, 4 generation failure.  The permutation count of a claim part is
bounded by the work it does, not by the part's size: it stops once it has
built ``counting.DOWN_SET_BUDGET`` down-sets, and no option changes that.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import __version__
from .bench import make_instance, run_bench, run_pair_comparison
from .counting import PermutationCapError, count_session
from .generators import GenerationError
from .instancefile import (
    InstanceDocument,
    InstanceFormatError,
    default_labels,
    load_instance,
    save_instance,
    serialize_instance,
)
from .mec import InvalidInstanceError, max_clique_knowledge, validate
from .oracle import DEFAULT_ORACLE_CAP, OracleCapError, enumerate_amos

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_CAP = 3
EXIT_GENERATION = 4


def _int_at_least(lo: int, what: str):
    """An argparse type taking an integer of at least ``lo``; ``what`` names
    such a value in the usage error."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
            if value >= lo:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"not {what}: {raw!r}")

    return parse


_cap = _int_at_least(0, "a nonnegative integer")
_positive = _int_at_least(1, "a positive integer")


def _int_list_at_least(lo: int, what: str):
    """An argparse type taking a nonempty comma-separated list of integers,
    each of at least ``lo``; ``what`` names such a value in the usage error."""

    def _int_list(raw: str) -> list[int]:
        values = [int(x) for x in raw.split(",") if x.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"no integer in {raw!r}")
        for value in values:
            if value < lo:
                raise argparse.ArgumentTypeError(f"not {what}: '{value}'")
        return values

    return _int_list


def _print_stats(result, elapsed_ms):
    stats = result.stats
    err = sys.stderr
    print(f"time: {elapsed_ms:.3f} ms", file=err)
    print(f"count digits: {len(str(result.count))}", file=err)
    print(f"components: {len(stats.components)}", file=err)
    for c in stats.components:
        print(
            f"  vertices={c.vertices} cliques={c.maximal_cliques}"
            f" subproblems={c.distinct_subproblems}"
            f" (bound {2 * c.maximal_cliques - 1})",
            file=err,
        )
    print(f"clique picks: {stats.clique_picks}", file=err)
    print(f"walked cliques: {stats.walked_cliques}", file=err)
    print(f"clique permutation counts: {stats.phi_chain_evaluations}", file=err)
    print(f"prefix-free counts: {stats.phi_empty_evaluations}", file=err)
    print(f"consistency counts: {stats.psi_evaluations}", file=err)
    print(f"memo hits: {stats.memo_hits}", file=err)


def cmd_count(args) -> int:
    doc = load_instance(args.instance)
    t0 = time.perf_counter()
    result = count_session(doc.instance)
    elapsed = (time.perf_counter() - t0) * 1000.0
    print(result.count)
    if args.stats:
        _print_stats(result, elapsed)
    return EXIT_OK


def cmd_validate(args) -> int:
    doc = load_instance(args.instance)
    violations = validate(doc.instance)
    if violations:
        for v in violations:
            print(v, file=sys.stderr)
        return EXIT_INVALID
    print("ok")
    return EXIT_OK


def cmd_oracle(args) -> int:
    doc = load_instance(args.instance)
    amos = enumerate_amos(doc.instance.graph, doc.instance.knowledge, cap=args.oracle_cap)
    print(len(amos))
    if args.compare:
        engine = count_session(doc.instance).count
        if engine != len(amos):
            print(f"mismatch: engine={engine} oracle={len(amos)}", file=sys.stderr)
            return EXIT_MISMATCH
        print("engine agrees", file=sys.stderr)
    return EXIT_OK


def cmd_gen(args) -> int:
    instance, _, p = make_instance(args.n, args.k, args.seed)
    doc = InstanceDocument(
        labels=default_labels(args.n),
        instance=instance,
        metadata={
            "generator": "random-chordal",
            "seed": args.seed,
            "p": p,
            "k": args.k,
            "clique_knowledge": max_clique_knowledge(instance),
            "engine_version": __version__,
        },
    )
    if args.out:
        save_instance(doc, args.out)
        print(args.out)
    else:
        sys.stdout.write(serialize_instance(doc))
    return EXIT_OK


def cmd_bench(args) -> int:
    log = (lambda msg: print(msg, file=sys.stderr)) if args.verbose else None
    if args.table1:
        rows, failures = run_pair_comparison(
            args.n_list,
            args.k_list,
            args.pairs,
            args.seed,
            args.out,
            log=log,
        )
        print(f"{len(rows)} comparison rows -> {args.out}")
    else:
        records, _, failures = run_bench(
            args.n_list,
            args.k_list,
            args.reps,
            args.seed,
            args.out,
            log=log,
        )
        print(f"{len(records)} runs -> {args.out}")
    for f in failures:
        print(f"failed: {f}", file=sys.stderr)
    return EXIT_MISMATCH if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amocount",
        description="Exact counting of Markov-equivalent DAGs under directed background knowledge.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count an instance file exactly")
    p.add_argument("instance")
    p.add_argument("--stats", action="store_true", help="print session statistics to stderr")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("instance")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("oracle", help="brute-force count a small instance")
    p.add_argument("instance")
    p.add_argument("--compare", action="store_true", help="also run the engine and compare")
    p.add_argument("--oracle-cap", type=_cap, default=DEFAULT_ORACLE_CAP, metavar="N")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="generate a seeded instance file")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument(
        "--k",
        type=_int_at_least(2, "an integer of at least 2"),
        default=None,
        help="clique knowledge target (omit for none)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="time seeded instances and write CSV")
    p.add_argument(
        "--n-list",
        type=_int_list_at_least(1, "a positive integer"),
        default="50,100,150,200,250,300",
        metavar="N1,N2,...",
    )
    p.add_argument(
        "--k-list",
        type=_int_list_at_least(2, "an integer of at least 2"),
        default="3,4,5,6,7",
        metavar="K1,K2,...",
    )
    p.add_argument("--reps", type=_positive, default=3)
    p.add_argument("--pairs", type=_positive, default=10, help="rows in --table1 mode")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--table1", action="store_true", help="base-vs-grown knowledge comparison mode")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InstanceFormatError, InvalidInstanceError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except (PermutationCapError, OracleCapError, RecursionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
    except GenerationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_GENERATION


if __name__ == "__main__":
    sys.exit(main())
