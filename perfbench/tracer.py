"""Per-layer spans recorded from outside the engine.

The tracer swaps the callables the engine reaches through its module
namespaces (and a few methods) for timing wrappers, and restores them on
exit.  Spans nest on one stack: a span's parent is the span below it, and
its self time is its duration minus the time of its child spans.  Only
per-layer totals are kept, so a traced run stays small however many spans
it records.

A hook whose target no longer exists (after a refactor of the engine) is
skipped; a layer all of whose hooks are missing is reported as absent.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# (object path, attribute, layer).  The engine imports some callables by
# name, so both the defining module and the importing module are hooked.
HOOKS = (
    ("amocount.counting", "_lbfs", "graphs.lbfs"),
    ("amocount.counting", "clique_tree", "graphs.clique_tree"),
    ("amocount.counting", "maximal_cliques", "graphs.maximal_cliques"),
    ("amocount.graphs", "maximal_cliques", "graphs.maximal_cliques"),
    ("amocount.graphs", "is_chordal", "graphs.is_chordal"),
    ("amocount.mec", "is_chordal", "graphs.is_chordal"),
    ("amocount.graphs:UndirectedGraph", "induced", "graphs.induced"),
    ("amocount.counting", "validate", "mec.validate"),
    ("amocount.counting", "chordal_components", "mec.components"),
    ("amocount.mec", "chordal_components", "mec.components"),
    ("amocount.counting:CountingSession", "_count", "counting"),
    ("amocount.counting", "_phi_with_ctx", "counting.phi"),
    ("amocount.counting:_PermCounter", "psi_value", "counting.psi"),
)

ROOT = "op"  # the benchmark's own span around one operation
PARSE = "instancefile.parse"  # the benchmark's own span around parsing
STATS = "counting.stats"  # the session statistics count_session returns


def _resolve(path):
    module, _, cls = path.partition(":")
    obj = sys.modules.get(module)
    if obj is not None and cls:
        obj = getattr(obj, cls, None)
    return obj


class Tracer:
    """Collects self time, call counts and layer counters."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self.max_psi_width = 0
        self.absent = set()
        self._stack = [[0.0]]
        self._saved = []

    def span(self, layer, fn, *args, **kwargs):
        """Call ``fn`` inside a span of ``layer``; return its result."""
        frame = [0.0]
        stack = self._stack
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            stack[-1][0] += dt
            self.self_s[layer] += dt - frame[0]
            self.calls[layer] += 1

    def _wrap(self, fn, layer):
        before = getattr(self, "_before_" + layer.replace(".", "_"), None)
        after = getattr(self, "_after_" + layer.replace(".", "_"), None)
        span = self.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args) if before else None
            result = span(layer, fn, *args, **kwargs)
            if after:
                after(args, result, token)
            return result

        return wrapper

    # Layer counters.  Each reads engine internals defensively, so that a
    # renamed attribute loses the counter, not the run.

    def _after_graphs_lbfs(self, args, result, token):
        try:
            flag, _, order = result
        except (TypeError, ValueError):
            return
        self.counters["lbfs_vertices"] += len(order)
        self.counters["lbfs_rejects"] += not flag

    def add_session_stats(self, result):
        """Memo hits and distinct subproblems from the statistics the engine
        returns with each count."""
        stats = getattr(result, "stats", None)
        hits = getattr(stats, "memo_hits", None)
        distinct = getattr(stats, "distinct_subproblems", None)
        if hits is None or distinct is None:
            self.absent.add(STATS)
            return
        self.counters["memo_hits"] += hits
        self.counters["subproblems"] += distinct

    def _before_counting_psi(self, args):
        cache = getattr(args[0], "_psi", None)
        return len(args) > 1 and cache is not None and args[1] not in cache

    def _after_counting_psi(self, args, result, computed):
        width = len(args[1])
        self.max_psi_width = max(self.max_psi_width, width)
        if computed:
            self.counters["psi_states"] += 2**width

    def __enter__(self):
        present = set()
        for path, attr, layer in HOOKS:
            owner = _resolve(path)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, layer))
            present.add(layer)
        self.absent |= {layer for _, _, layer in HOOKS} - present
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        return False
