"""Seeded instance generators for testing and benchmarking.

Random connected chordal graphs come from an Erdos-Renyi draw followed by an
elimination fill-in along a random vertex ranking (the decreasing ranking
becomes a perfect elimination ordering), rejection-sampled until connected.
Knowledge sets are grown along a clique-tree walk so that every large clique
ends up touching exactly the requested number of knowledge vertices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graphs import (
    UndirectedGraph,
    _iter_bits,
    _lbfs,
    _mask_components,
    clique_tree,
    maximal_cliques,
)
from .mec import BackgroundKnowledge

# Draws ``random_chordal`` makes before it gives up on a connected graph.
MAX_ATTEMPTS = 1000


class GenerationError(RuntimeError):
    pass


class _TopUpDeadlock(Exception):
    pass


@dataclass(frozen=True)
class GenConfig:
    """Parameters for one random draw."""

    n: int
    p_range: tuple = (0.1, 0.3)
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one vertex")
        lo, hi = self.p_range
        if not (0.0 < lo <= hi < 1.0):
            raise ValueError("edge probability range must satisfy 0 < lo <= hi < 1")


def random_chordal_with_stats(cfg: GenConfig) -> tuple:
    """Draw a connected chordal graph; also report p and the attempt count."""
    rng = random.Random(cfg.seed)
    lo, hi = cfg.p_range
    n = cfg.n
    for attempt in range(1, MAX_ATTEMPTS + 1):
        p = lo + rng.random() * (hi - lo)
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        ranking = list(range(n))
        rng.shuffle(ranking)  # ranking[0] has the highest rank
        suffix = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            suffix[i] = suffix[i + 1] | (1 << ranking[i])
        for i, x in enumerate(ranking):
            lower = adj[x] & suffix[i + 1]
            for u in _iter_bits(lower):
                adj[u] |= lower & ~(1 << u)
        if len(_mask_components(adj, (1 << n) - 1)) != 1:
            continue
        return UndirectedGraph._from_masks(tuple(range(n)), adj), {"p": p, "attempts": attempt}
    raise GenerationError(
        f"no connected chordal graph with n={n} after {MAX_ATTEMPTS} attempts"
    )


def random_chordal(cfg: GenConfig) -> UndirectedGraph:
    """Seeded connected chordal graph on ``cfg.n`` vertices."""
    return random_chordal_with_stats(cfg)[0]


def _coverage_targets(cliques, k_target):
    return [min(k_target, len(c)) for c in cliques]


def _gen_background_once(g, k_target, rng) -> BackgroundKnowledge:
    tree = clique_tree(g)
    cliques = [frozenset(c) for c in tree.nodes]
    targets = _coverage_targets(cliques, k_target)
    holding = [[] for _ in g.vertices]
    at = {v: i for i, v in enumerate(g.vertices)}
    for ci, c in enumerate(cliques):
        for v in c:
            holding[at[v]].append(ci)

    sigma = list(g.vertices)
    rng.shuffle(sigma)
    pos = {v: i for i, v in enumerate(sigma)}

    covered = [set() for _ in cliques]
    selected: set = set()
    selected_pairs: set = set()

    def admissible(a, b):
        for ci in holding[at[a]]:
            if ci in holding[at[b]]:
                extra = len({a, b} - covered[ci])
                if len(covered[ci]) + extra > targets[ci]:
                    return False
        return True

    def add_edge(a, b):
        arc = (a, b) if pos[a] < pos[b] else (b, a)
        selected.add(arc)
        selected_pairs.add(frozenset((a, b)))
        for ci in holding[at[a]]:
            if ci in holding[at[b]]:
                covered[ci].add(a)
                covered[ci].add(b)

    # Depth-first walk from the root, children in lexicographic order.
    stack = [tree.root]
    dfs = []
    while stack:
        i = stack.pop()
        dfs.append(i)
        stack.extend(reversed(tree.children(i)))

    for ci in dfs:
        c = cliques[ci]
        if len(c) < 2:
            continue
        pairs = [(a, b) for i, a in enumerate(sorted(c)) for b in sorted(c)[i + 1 :]]
        rng.shuffle(pairs)
        while len(covered[ci]) < targets[ci]:
            need = targets[ci] - len(covered[ci])
            pick = None
            for a, b in pairs:
                if frozenset((a, b)) in selected_pairs:
                    continue
                gain = len({a, b} - covered[ci])
                if gain == 0 or gain > need:
                    continue
                if admissible(a, b):
                    pick = (a, b)
                    break
            if pick is None:
                raise _TopUpDeadlock
            add_edge(*pick)

    for ci, c in enumerate(cliques):
        if len(c) >= 2 and len(covered[ci]) != targets[ci]:
            raise _TopUpDeadlock
    return BackgroundKnowledge(selected)


def gen_background(g: UndirectedGraph, k_target: int, seed: int) -> BackgroundKnowledge:
    """Knowledge whose clique parameter is exactly min(k_target, clique size).

    Walks the clique tree depth-first and tops each clique up with in-clique
    edges until the clique touches the right number of knowledge vertices.
    Edges are oriented by one global random order, so the claims inside
    every clique stay jointly satisfiable.
    """
    if k_target < 2:
        raise ValueError("knowledge parameter must be at least 2")
    if g.n < 2 or g.num_edges == 0:
        return BackgroundKnowledge.empty()
    for attempt in range(64):
        rng = random.Random(seed * 1_000_003 + attempt)
        try:
            return _gen_background_once(g, k_target, rng)
        except _TopUpDeadlock:
            continue
    raise GenerationError(
        f"could not reach the requested clique knowledge k={k_target}"
    )


def gen_amo_claims(g: UndirectedGraph, count: int, seed: int) -> BackgroundKnowledge:
    """``count`` edges of the chordal graph ``g`` (all of them if it has
    fewer), oriented as one acyclic moral orientation.

    The orientation follows an LBFS order seeded at a random maximal clique,
    the reverse of a perfect elimination ordering, so it has no directed
    cycle and no v-structure: the claims hold in it, and any instance made
    of ``g`` and these claims counts at least 1.
    """
    if count < 0:
        raise ValueError(f"claim count must be nonnegative, got {count}")
    rng = random.Random(seed)
    edges = g.edges()
    if not count or not edges:
        return BackgroundKnowledge.empty()
    start = rng.choice(maximal_cliques(g))
    _, _, order = _lbfs(g.nbr, (1 << g.n) - 1, sum(map(g.bit.__getitem__, start)), None, False)
    pos = {g.vertices[p]: i for i, p in enumerate(order)}
    arcs = [(u, v) if pos[u] < pos[v] else (v, u) for u, v in edges]
    return BackgroundKnowledge(rng.sample(arcs, min(count, len(arcs))))


def grow_background(g: UndirectedGraph, k_base: BackgroundKnowledge, seed: int):
    """A strict superset of ``k_base`` with the same clique parameter.

    Only edges between vertices already touched by ``k_base`` inside every
    shared clique are added, so no clique's knowledge-vertex count moves.
    New edges are oriented by a topological order of ``k_base``, keeping the
    claims satisfiable.  Returns ``(knowledge, grew)``; ``grew`` is False
    when no admissible extra edge exists.
    """
    rng = random.Random(seed)
    cliques = [frozenset(c) for c in maximal_cliques(g)]
    covered = [set() for _ in cliques]
    base_pairs = k_base.pairs
    for ci, c in enumerate(cliques):
        for u, v in base_pairs:
            if u in c and v in c:
                covered[ci].add(u)
                covered[ci].add(v)

    # Topological order of the claims, random priority on ties.
    prio = {v: rng.random() for v in g.vertices}
    indeg = {v: 0 for v in g.vertices}
    succ = {v: [] for v in g.vertices}
    for u, v in base_pairs:
        succ[u].append(v)
        indeg[v] += 1
    ready = sorted((v for v in g.vertices if indeg[v] == 0), key=prio.get)
    order = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
        ready.sort(key=prio.get)
    if len(order) != g.n:
        raise ValueError("base knowledge contains a directed cycle")
    pos = {v: i for i, v in enumerate(order)}

    taken = {frozenset(p) for p in base_pairs}
    cands = []
    for a, b in g.edges():
        if frozenset((a, b)) in taken:
            continue
        ok = True
        for ci, c in enumerate(cliques):
            if a in c and b in c and not ({a, b} <= covered[ci]):
                ok = False
                break
        if ok:
            cands.append((a, b))
    rng.shuffle(cands)
    budget = len(base_pairs)
    extra = []
    for a, b in cands:
        if len(extra) >= budget:
            break
        extra.append((a, b) if pos[a] < pos[b] else (b, a))
    if not extra:
        return k_base, False
    return k_base.union(extra), True
