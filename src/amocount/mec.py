"""Chain graphs, background knowledge, and instance-level operations.

A counting instance is a partially directed graph whose undirected part
splits into chordal components, together with a set of directed edge claims
("knowledge").  The total count is the product over components of the
per-component counts, zero when a claim reverses one of the graph's own
directed edges.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .graphs import (
    UndirectedGraph,
    _claim_endpoints,
    _claim_masks,
    _iter_bits,
    _mask_components,
    _mcs_cliques,
)


class BackgroundKnowledge:
    """An immutable set of directed edge claims u -> v."""

    __slots__ = ("pairs",)

    def __init__(self, pairs=()):
        norm = set()
        for u, v in pairs:
            try:
                u, v = operator.index(u), operator.index(v)
            except TypeError:
                raise ValueError(
                    f"direction claim {u!r}->{v!r} needs integer endpoints"
                ) from None
            if u == v:
                raise ValueError(f"direction claim {u}->{v} is a self-loop")
            norm.add((u, v))
        self.pairs = frozenset(norm)

    @classmethod
    def empty(cls) -> "BackgroundKnowledge":
        return cls()

    def union(self, other) -> "BackgroundKnowledge":
        return BackgroundKnowledge(self.pairs | frozenset(other))

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)

    def __bool__(self):
        return bool(self.pairs)

    def __contains__(self, pair):
        return pair in self.pairs

    def __eq__(self, other):
        if isinstance(other, BackgroundKnowledge):
            return self.pairs == other.pairs
        return NotImplemented

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return f"BackgroundKnowledge({sorted(self.pairs)!r})"


class PartiallyDirectedGraph:
    """Graph over dense vertices 0..n-1 with undirected and directed edges.

    Every vertex pair carries at most one edge: undirected, or directed in
    exactly one direction.
    """

    __slots__ = ("n", "directed", "_masks", "_forest")

    def __init__(self, n: int, undirected=(), directed=()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        bit = [1 << v for v in range(n)]
        masks = [0] * n
        u = v = 0  # bound for the except clause if the first row is not a pair
        try:
            for u, v in undirected:
                if 0 <= u < v < n or 0 <= v < u < n:
                    masks[u] |= bit[v]
                    masks[v] |= bit[u]
                else:
                    _raise_bad_edge(n, u, v)
        except TypeError:
            _raise_non_integer_edge(u, v)
            raise
        self._set_parts(masks, directed)

    @classmethod
    def _from_masks(cls, masks, directed) -> "PartiallyDirectedGraph":
        """The graph over vertices 0..len(masks)-1 whose undirected part has
        the neighbour masks ``masks``, which must be symmetric and free of
        self-loops (not checked); the directed edges are checked as in
        ``__init__``."""
        g = cls.__new__(cls)
        g._set_parts(masks, directed)
        return g

    def _set_parts(self, masks, directed):
        """Check the directed edges against each other and against the
        undirected part's neighbour masks, then store both parts."""
        n = len(masks)
        dire = set()
        u = v = 0  # bound for the except clause if the first row is not a pair
        try:
            for u, v in directed:
                if not (0 <= u < v < n or 0 <= v < u < n):
                    _raise_bad_edge(n, u, v)
                if (v, u) in dire:
                    raise ValueError(f"edge {u},{v} directed both ways")
                dire.add((u, v))
            for u, v in dire:
                if masks[u] >> v & 1:
                    raise ValueError(f"edge {u},{v} is both directed and undirected")
        except TypeError:
            _raise_non_integer_edge(u, v)
            raise
        self.n = n
        self.directed = frozenset(dire)
        self._masks = tuple(masks)
        self._forest = None

    @property
    def undirected(self) -> frozenset:
        """The undirected edges as pairs (u, v) with u < v, read off the
        neighbour masks."""
        return frozenset(
            (u, v) for u, m in enumerate(self._masks) for v in _iter_bits(m >> (u + 1) << (u + 1))
        )

    @property
    def skeleton_pairs(self) -> frozenset:
        return self.undirected | frozenset(
            (min(u, v), max(u, v)) for u, v in self.directed
        )

    def skeleton_adjacency(self) -> dict:
        adj = {v: set(_iter_bits(m)) for v, m in enumerate(self._masks)}
        for u, v in self.directed:
            adj[u].add(v)
            adj[v].add(u)
        return {v: frozenset(nb) for v, nb in adj.items()}

    def undirected_part(self) -> UndirectedGraph:
        return UndirectedGraph._from_masks(tuple(range(self.n)), self._masks)

    def undirected_masks(self) -> tuple:
        """Neighbour mask of each vertex 0..n-1 in the undirected part: bit u
        of entry v is set when u-v is an undirected edge.  This is the only
        stored form of the undirected part."""
        return self._masks

    def undirected_forest(self) -> tuple:
        """``(trees, nonchordal)`` for the undirected part, from one search
        run on first use and kept.

        ``trees`` holds one ``(mask, cliques, parents)`` per component, by
        lowest vertex: what ``_mcs_cliques`` gives for the component's mask.
        The search numbers a component completely before it leaves it and
        starts each at its lowest vertex, so the parentless cliques cut its
        output into the per-component results.  ``nonchordal`` is the mask
        of the vertices where the search failed a chordality check: a
        component is chordal exactly when it holds none of them."""
        if self._forest is None:
            trees = []
            nonchordal = 0
            if self.n:
                cliques, parents, nonchordal = _mcs_cliques(self._masks, (1 << self.n) - 1)
                starts = [i for i, p in enumerate(parents) if p is None]
                for a, b in zip(starts, starts[1:] + [len(cliques)]):
                    part = cliques[a:b]
                    mask = 0
                    for c in part:
                        mask |= c
                    trees.append((mask, part, [p if p is None else p - a for p in parents[a:b]]))
            self._forest = (tuple(trees), nonchordal)
        return self._forest

    def __eq__(self, other):
        if isinstance(other, PartiallyDirectedGraph):
            return (
                self.n == other.n
                and self._masks == other._masks
                and self.directed == other.directed
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self._masks, self.directed))

    def __repr__(self):
        return (
            f"PartiallyDirectedGraph(n={self.n},"
            f" undirected={sum(m.bit_count() for m in self._masks) // 2},"
            f" directed={len(self.directed)})"
        )


def _raise_bad_edge(n, u, v):
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
    raise ValueError(f"self-loop at vertex {u}")


def _raise_non_integer_edge(u, v):
    """Name the edge u-v when an endpoint is not an integer; called only
    after an edge loop raised ``TypeError``, so valid input pays nothing."""
    try:
        operator.index(u), operator.index(v)
    except TypeError:
        raise ValueError(f"edge ({u!r}, {v!r}) needs integer endpoints") from None


@dataclass(frozen=True)
class MecInstance:
    graph: PartiallyDirectedGraph
    knowledge: BackgroundKnowledge


class InvalidInstanceError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations) or "invalid instance")


def chordal_components(graph: PartiallyDirectedGraph) -> list[UndirectedGraph]:
    """Connected components of the undirected part, singletons included.

    Components keep their original vertex labels and together partition the
    vertex set.
    """
    und = graph.undirected_part()
    return [
        und.induced(_iter_bits(c))
        for c in _mask_components(graph.undirected_masks(), (1 << graph.n) - 1)
    ]


def validate(instance: MecInstance) -> list[str]:
    """All violations of instance well-formedness, as printable messages.

    Checks: every knowledge pair is an edge of the skeleton; every
    undirected component is chordal; no directed edge joins two vertices of
    one undirected component; the directed edges between components are
    acyclic.  An empty list means the instance is acceptable.
    """
    g = instance.graph
    n = g.n
    nbr, dire = g.undirected_masks(), g.directed
    msgs = []
    for u, v in sorted(instance.knowledge):
        if not (0 <= u < n and 0 <= v < n):
            msgs.append(f"knowledge claim {u}->{v} references an unknown vertex")
        elif not (nbr[u] >> v & 1 or (u, v) in dire or (v, u) in dire):
            msgs.append(f"knowledge claim {u}->{v} is not an edge of the graph")

    trees, nonchordal = g.undirected_forest()
    comp_of = [0] * n
    for ci, (comp, _, _) in enumerate(trees):
        for v in _iter_bits(comp):
            comp_of[v] = ci
        if comp & nonchordal:
            msgs.append(
                f"undirected component containing vertex {(comp & -comp).bit_length() - 1}"
                " is not chordal"
            )

    quotient_edges = set()
    for u, v in sorted(dire):
        if comp_of[u] == comp_of[v]:
            msgs.append(
                f"directed edge {u}->{v} joins two vertices of one undirected"
                " component (semi-directed cycle)"
            )
        else:
            quotient_edges.add((comp_of[u], comp_of[v]))

    if not _is_acyclic(len(trees), quotient_edges):
        msgs.append("directed edges form a cycle across undirected components")
    return msgs


def _is_acyclic(n: int, arcs) -> bool:
    """Whether the arcs over vertices 0..n-1 form no directed cycle (Kahn's
    algorithm)."""
    indeg = [0] * n
    succ: dict[int, list] = {}
    for u, v in arcs:
        succ.setdefault(u, []).append(v)
        indeg[v] += 1
    ready = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for w in succ.get(v, ()):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return seen == n


def max_clique_knowledge(instance: MecInstance) -> int:
    """The parameter the running time is exponential in.

    For each maximal clique C of a chordal component, count the vertices of
    C incident to a knowledge claim with both endpoints inside C; return the
    maximum over all cliques.  Knowledge-free instances give 0.
    """
    pairs = instance.knowledge.pairs
    if not pairs:
        return 0
    g = instance.graph
    preds, targets = _claim_masks({v: 1 << v for v in range(g.n)}, pairs)
    trees, nonchordal = g.undirected_forest()
    if nonchordal:
        raise ValueError("graph is not chordal")
    cliques = [c for _, part, _ in trees for c in part]
    return max((_claim_endpoints(preds, c, targets).bit_count() for c in cliques), default=0)
