"""Shared builders for seeded test instances.

Everything here is deterministic given a seed, so failures reproduce
exactly.  Chain-graph instances are built with the orientation-propagation
closure applied, which keeps the per-component product decomposition valid
and lets the brute-force oracle serve as ground truth.
"""

import random

from amocount.generators import GenConfig, random_chordal
from amocount.graphs import UndirectedGraph
from amocount.mec import BackgroundKnowledge, MecInstance, PartiallyDirectedGraph


def uccg_instance(g: UndirectedGraph, knowledge=None) -> MecInstance:
    """Wrap an undirected graph as a fully undirected instance."""
    graph = PartiallyDirectedGraph(g.n, g.edges(), ())
    return MecInstance(graph, BackgroundKnowledge(knowledge or ()))


def within_recursion_bound(stats) -> bool:
    """Distinct subproblems never exceed 2*cliques - 1, per component of a
    ``SessionStats``."""
    return all(c.distinct_subproblems <= 2 * c.maximal_cliques - 1 for c in stats.components)


def random_uccg(seed: int, n_lo: int = 3, n_hi: int = 8) -> UndirectedGraph:
    n = random.Random(1_000_003 + seed).randint(n_lo, n_hi)
    return random_chordal(GenConfig(n=n, p_range=(0.2, 0.6), seed=seed))


def random_claims(g: UndirectedGraph, rng: random.Random, mode: str) -> BackgroundKnowledge:
    """Seeded claim sets of a given flavor over the edges of ``g``.

    ``empty`` has no claims, ``oriented`` orients a random edge subset,
    ``contradictory`` additionally claims both directions of one edge.
    """
    if mode == "empty":
        return BackgroundKnowledge.empty()
    edges = g.edges()
    take = rng.randint(0, len(edges))
    picked = rng.sample(edges, take)
    pairs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in picked]
    if mode == "contradictory" and edges:
        u, v = edges[rng.randrange(len(edges))]
        pairs += [(u, v), (v, u)]
    return BackgroundKnowledge(pairs)


def _propagation_closure(n, und, dire):
    """Add a->c whenever a->b, b-c and a,c are non-adjacent, to fixpoint."""
    und = set(und)
    dire = set(dire)
    changed = True
    while changed:
        changed = False
        adj = {frozenset(p) for p in und} | {frozenset(p) for p in dire}
        for a, b in list(dire):
            for x, y in list(und):
                for c in (x, y):
                    if b in (x, y) and c != b and frozenset((a, c)) not in adj:
                        dire.add((a, c))
                        adj.add(frozenset((a, c)))
                        changed = True
    return und, dire


def random_chain_instance(seed: int, mode: str = "oriented") -> MecInstance:
    """A seeded multi-component instance with directed between-component edges.

    Directed edges always point from a lower-numbered component to a higher
    one, so the component quotient stays acyclic, and the propagation
    closure removes any a->b-c pattern with a,c non-adjacent.
    """
    rng = random.Random(7_777_777 + seed)
    n_comp = rng.randint(2, 3)
    blocks = []
    offset = 0
    und = []
    for i in range(n_comp):
        g = random_chordal(GenConfig(n=rng.randint(1, 4), p_range=(0.3, 0.7), seed=seed * 31 + i))
        blocks.append([v + offset for v in g.vertices])
        und += [(u + offset, v + offset) for u, v in g.edges()]
        offset += g.n
    dire = set()
    for i in range(n_comp):
        for j in range(i + 1, n_comp):
            for a in blocks[i]:
                for b in blocks[j]:
                    if rng.random() < 0.3:
                        dire.add((a, b))
    und, dire = _propagation_closure(offset, und, dire)
    graph = PartiallyDirectedGraph(offset, und, dire)

    pairs = []
    for u, v in sorted(und):
        if rng.random() < 0.35:
            pairs.append((u, v) if rng.random() < 0.5 else (v, u))
    if mode == "reversal" and dire:
        u, v = sorted(dire)[rng.randrange(len(dire))]
        pairs.append((v, u))
    elif mode == "redundant" and dire:
        u, v = sorted(dire)[rng.randrange(len(dire))]
        pairs.append((u, v))
    return MecInstance(graph, BackgroundKnowledge(pairs))
