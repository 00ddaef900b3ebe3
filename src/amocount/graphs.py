"""Undirected graphs and chordal-graph machinery.

Vertices are integers.  Graphs built through ``UndirectedGraph(n, edges)``
use the dense range ``0..n-1``; induced subgraphs keep the labels of their
host graph.  A graph stores neighbour masks over the positions of its
sorted vertex tuple, and the LBFS and maximum-cardinality-search cores work
on those masks, so a mask over a host graph identifies an induced
subproblem unambiguously; the counting engine keys its memo table on
exactly that.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


class UndirectedGraph:
    """Immutable undirected graph stored as neighbour masks.

    Bit i of a mask is the vertex ``vertices[i]``, the i-th of the sorted
    vertex tuple, so any integer labels work and "lowest vertex id" and
    "lowest bit" are the same thing.  ``bit`` maps each vertex to its bit and
    ``nbr[i]`` is the neighbour mask of ``vertices[i]``; every other view is
    read off them.  The graph's one maximum cardinality search
    (``_mcs_cliques``) is run on first use and kept.
    """

    __slots__ = ("vertices", "bit", "nbr", "_search")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self._init_from(range(n), edges)

    @classmethod
    def from_vertices(cls, vertices, edges=()) -> "UndirectedGraph":
        """Build a graph over an explicit (not necessarily dense) vertex set."""
        g = cls.__new__(cls)
        g._init_from(vertices, edges)
        return g

    @classmethod
    def _from_masks(cls, vertices: tuple, nbr) -> "UndirectedGraph":
        """The graph over the sorted tuple ``vertices`` whose neighbour masks
        are ``nbr``, which must be symmetric and free of self-loops (not
        checked)."""
        g = cls.__new__(cls)
        g.vertices, g.bit, g.nbr = vertices, {v: 1 << i for i, v in enumerate(vertices)}, tuple(nbr)
        g._search = None
        return g

    def _init_from(self, vertices, edges):
        vs = tuple(sorted(set(vertices)))
        bit = {v: 1 << i for i, v in enumerate(vs)}
        nbr = [0] * len(vs)
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u not in bit or v not in bit:
                raise ValueError(f"edge ({u}, {v}) references an unknown vertex")
            bu, bv = bit[u], bit[v]
            nbr[bu.bit_length() - 1] |= bv
            nbr[bv.bit_length() - 1] |= bu
        self.vertices, self.bit, self.nbr = vs, bit, tuple(nbr)
        self._search = None

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def vertex_set(self) -> frozenset:
        return frozenset(self.vertices)

    def neighbors(self, v) -> frozenset:
        vs = self.vertices
        return frozenset(vs[i] for i in _iter_bits(self.nbr[self.bit[v].bit_length() - 1]))

    def has_edge(self, u, v) -> bool:
        if u not in self.bit:
            raise KeyError(f"unknown vertex {u}")
        return bool(self.nbr[self.bit[u].bit_length() - 1] & self.bit.get(v, 0))

    def edges(self) -> list[tuple[int, int]]:
        vs = self.vertices
        return [
            (u, vs[j]) for i, u in enumerate(vs) for j in _iter_bits(self.nbr[i] >> (i + 1) << (i + 1))
        ]

    @property
    def num_edges(self) -> int:
        return sum(m.bit_count() for m in self.nbr) // 2

    def induced(self, subset) -> "UndirectedGraph":
        """Induced subgraph keeping the original vertex labels."""
        sub = set(subset)
        if not sub <= self.bit.keys():
            raise ValueError("subset contains vertices outside the graph")
        vs = tuple(sorted(sub))
        at = [self.bit[v].bit_length() - 1 for v in vs]
        inside = sum(1 << i for i in at)
        new = {i: 1 << j for j, i in enumerate(at)}  # host position -> new bit
        nbr = [sum(map(new.__getitem__, _iter_bits(self.nbr[i] & inside))) for i in at]
        return UndirectedGraph._from_masks(vs, nbr)

    def _mcs(self) -> tuple:
        """``_mcs_cliques`` over the whole graph, run once and kept."""
        if self._search is None:
            self._search = _mcs_cliques(self.nbr, (1 << self.n) - 1)
        return self._search

    def __eq__(self, other):
        if not isinstance(other, UndirectedGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.nbr == other.nbr

    def __hash__(self):
        return hash((self.vertices, self.nbr))

    def __repr__(self):
        return f"UndirectedGraph(n={self.n}, m={self.num_edges})"


def _iter_bits(mask: int):
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _mask_components(nbr, mask) -> list[int]:
    """Connected components inside ``mask``, ordered by lowest position."""
    comps = []
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            reach = 0
            while frontier:  # _iter_bits inlined: this loop is hot
                low = frontier & -frontier
                reach |= nbr[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & mask & ~comp
            comp |= frontier
        comps.append(comp)
        mask ^= comp
    return comps


def _claim_masks(bit, pairs) -> tuple[list, int]:
    """The claims ``pairs`` as the engine reads them: ``preds[i]`` is the
    mask of the sources of the claims into position i, and ``targets`` the
    mask of claim targets.

    ``bit`` maps each vertex to the bit of its position, positions running
    0..len(bit)-1; a claim with an end outside ``bit`` is dropped.
    """
    preds = [0] * len(bit)
    targets = 0
    for u, v in pairs:
        if u in bit and v in bit:
            b = bit[v]
            preds[b.bit_length() - 1] |= bit[u]
            targets |= b
    return preds, targets


def _claim_endpoints(preds, x, targets) -> int:
    """The vertices of the mask ``x`` that are endpoints of a claim inside it.

    ``preds[v]`` is the mask of the sources of the claims into v, and
    ``targets`` holds every v whose ``preds[v]`` is not 0; only the targets
    inside ``x`` are walked.
    """
    touched = 0
    for v in _iter_bits(x & targets):
        sources = preds[v] & x
        if sources:
            touched |= sources | 1 << v
    return touched


def _lbfs(nbr, sub, seed, preds, collect_components):
    """Lexicographic BFS by partition refinement over bitmasks.

    Vertices are positions: ``nbr[v]`` is the neighbour mask of position v,
    and the sweep visits the vertices of the mask ``sub``.  Cells are masks;
    a split keeps ``cell & nbr[v]`` in front of the rest.  ``seed``, a mask
    inside ``sub`` that is 0 or a clique, is the first cell.  ``preds[v]`` is
    the mask of sources u of direction claims u -> v (``preds`` may be None);
    sources outside ``sub`` are ignored.  Whenever some claim's source is
    still outside the seed and every recorded front set when its target is
    picked, the consistency flag drops to False.  Ties go to the lowest
    position.

    Returns ``(flag, components, order)``: ``components`` are the connected
    components of the recorded front sets as masks (only filled in when
    ``collect_components`` is set), ``order`` the visited positions.
    """
    cells = [c for c in (sub & ~seed, seed) if c]  # the front cell is last
    remaining = sub
    marked = seed  # vertices inside the seed clique or a recorded front
    order = []
    comps = []
    flag = True
    while remaining:
        cell = cells[-1]
        low = cell & -cell
        v = low.bit_length() - 1
        if not marked & low:
            marked |= cell
            if collect_components:
                if cell == low:  # a lone vertex is its own component
                    comps.append(low)
                else:
                    comps.extend(_mask_components(nbr, cell))
        order.append(v)
        if preds is not None and preds[v] & sub & ~marked:
            flag = False
        remaining ^= low
        cell ^= low
        if cell:
            cells[-1] = cell
        else:
            cells.pop()
        split = nbr[v] & remaining
        i = len(cells) - 1
        while split:
            cell = cells[i]
            inside = cell & split
            if inside:
                split ^= inside
                if inside != cell:
                    cells[i] = cell ^ inside
                    cells.insert(i + 1, inside)
            i -= 1
    return flag, comps, order


def lbfs_order(g: UndirectedGraph) -> list:
    """Lexicographic BFS ordering, lowest vertex id on ties."""
    if g.n == 0:
        raise ValueError("graph is empty")
    _, _, order = _lbfs(g.nbr, (1 << g.n) - 1, 0, None, False)
    return [g.vertices[i] for i in order]


def is_chordal(g: UndirectedGraph) -> bool:
    """Whether ``g`` is chordal."""
    return not g._mcs()[2]


def _mcs_cliques(nbr, sub) -> tuple[list, list, int]:
    """Maximal cliques of the chordal graph on the nonempty mask ``sub``, and a
    clique tree; the same search tells whether the graph is chordal.

    Runs maximum cardinality search with weight buckets (masks of the
    unnumbered vertices of each weight, so the lowest position on ties is the
    lowest bit); a clique closes whenever the weight of the picked vertex
    fails to grow.  A new clique's parent is the clique that holds its most
    recently numbered earlier neighbour (Blair and Peyton 1993), so the
    parents form a clique tree rooted at the first clique, and every parent
    comes before its children.  A clique with no earlier neighbour starts a
    new component and has parent None.  Returns ``(cliques, parents,
    nonchordal)``: the cliques as masks in the order they were found, their
    parents, and the mask of the vertices where one of two checks failed, 0
    exactly when the searched graph is chordal.  A vertex that grows the open
    set must be adjacent to all of it, and the earlier neighbours of a vertex
    that opens a set must lie in its parent clique.

    The checks are a chordality test (Tarjan and Yannakakis 1984).  When
    they all pass, each vertex's earlier neighbours form a clique, so the
    search order reversed is a perfect elimination ordering.  By induction,
    the open set is a clique and is the last vertex with its earlier
    neighbours.  A vertex that grows it outweighs the previous vertex by
    one, so its earlier neighbours are as many as the open set holds and,
    being adjacent to all of it, are that set.  A vertex that opens a set
    brings its earlier neighbours, which lie in a closed clique, so they and
    the new set are cliques.

    Conversely, on a chordal graph every check passes, since each vertex's
    earlier neighbours form a clique.  A vertex that grows the open set
    gained its extra weight from the previous vertex u, so its earlier
    neighbours are u and as many others as u has earlier neighbours.  Those
    others are adjacent to u and numbered before it, so they are u's earlier
    neighbours, and with u they are the open set.  A vertex that opens a set
    has its earlier neighbours inside the set that its most recently
    numbered earlier neighbour w was numbered into: the rest of them are
    adjacent to w and numbered before it, so they are earlier neighbours of
    w, which that set held from w on.  That set is Blair and Peyton's
    parent, so the parent clique holds all of the earlier neighbours.

    Each component of the searched graph is numbered completely before the
    search leaves it, and a failed check's vertex lies in the component
    being numbered, so a component is chordal exactly when it holds none of
    the ``nonchordal`` vertices.
    """
    buckets = [0] * (sub.bit_count() + 1)
    buckets[0] = unnumbered = sub
    best = 0
    cliques = []
    parents = []
    home = {}  # position -> index of the clique it was numbered into
    open_index = 0  # index the open clique will get
    current = 0
    up = None  # parent of the open clique
    prev_card = -1
    nonchordal = 0
    while unnumbered:
        while not buckets[best]:
            best -= 1
        low = buckets[best] & -buckets[best]
        v = low.bit_length() - 1
        if best <= prev_card:
            cliques.append(current)
            parents.append(up)
            open_index += 1
            earlier = nbr[v] & (sub ^ unnumbered)
            current = low | earlier
            if earlier & (earlier - 1):
                up = max(map(home.__getitem__, _iter_bits(earlier)))
                if earlier & ~cliques[up]:
                    nonchordal |= low
            else:  # one earlier neighbour, or none (position -1) at a new component
                up = home.get(earlier.bit_length() - 1)
        else:
            if current & ~nbr[v]:
                nonchordal |= low
            current |= low
        home[v] = open_index
        prev_card = best
        buckets[best] ^= low
        unnumbered ^= low
        # Each unnumbered neighbour moves up one bucket.  Going down from
        # the top bucket moves every vertex once; none is heavier than v.
        rest = nbr[v] & unnumbered
        w = best
        while rest:
            moving = buckets[w] & rest
            if moving:
                rest ^= moving
                buckets[w] ^= moving
                buckets[w + 1] |= moving
            w -= 1
        best += 1
    cliques.append(current)
    parents.append(up)
    return cliques, parents, nonchordal


def maximal_cliques(g: UndirectedGraph) -> list[tuple[int, ...]]:
    """All maximal cliques of a chordal graph, sorted lexicographically.

    Rejects non-chordal input.
    """
    if g.n == 0:
        return []
    cliques, _, nonchordal = g._mcs()
    if nonchordal:
        raise ValueError("graph is not chordal")
    vs = g.vertices
    return sorted(tuple(vs[i] for i in _iter_bits(c)) for c in cliques)


@dataclass
class RootedCliqueTree:
    """Clique tree with a fixed root; ``parent[root]`` is None."""

    nodes: tuple[tuple[int, ...], ...]
    parent: tuple
    root: int

    def __post_init__(self):
        kids: list[list[int]] = [[] for _ in self.nodes]
        for i, p in enumerate(self.parent):
            if p is not None:
                kids[p].append(i)
        self._children = tuple(tuple(sorted(k)) for k in kids)

    def children(self, i: int) -> tuple[int, ...]:
        return self._children[i]


def clique_tree(g: UndirectedGraph) -> RootedCliqueTree:
    """Rooted clique tree of a connected chordal graph.

    The tree is a maximum-weight spanning tree of the clique intersection
    graph, with ties broken toward the lexicographically smallest clique
    pair.  The root is the maximal clique containing the lowest vertex
    (again the lexicographically smallest such clique on ties), making the
    construction deterministic.
    """
    if g.n == 0:
        raise ValueError("graph is empty")
    if g._mcs()[1].count(None) != 1:  # each component starts with a parentless clique
        raise ValueError("clique tree requires a connected graph")
    cliques = maximal_cliques(g)
    m = len(cliques)
    csets = [frozenset(c) for c in cliques]
    adj_tree: list[list[int]] = [[] for _ in range(m)]
    if m > 1:
        cand = []
        for i in range(m):
            for j in range(i + 1, m):
                w = len(csets[i] & csets[j])
                if w:
                    cand.append((-w, i, j))
        cand.sort()
        uf = list(range(m))

        def find(x):
            while uf[x] != x:
                uf[x] = uf[uf[x]]
                x = uf[x]
            return x

        added = 0
        for _, i, j in cand:
            ri, rj = find(i), find(j)
            if ri == rj:
                continue
            uf[ri] = rj
            adj_tree[i].append(j)
            adj_tree[j].append(i)
            added += 1
            if added == m - 1:
                break
        if added != m - 1:
            raise RuntimeError("clique intersection graph did not span a tree")

    low = g.vertices[0]
    root = next(i for i in range(m) if low in csets[i])

    parent: list = [None] * m
    seen = {root}
    queue = deque([root])
    while queue:
        i = queue.popleft()
        for j in sorted(adj_tree[i]):
            if j not in seen:
                seen.add(j)
                parent[j] = i
                queue.append(j)
    return RootedCliqueTree(tuple(cliques), tuple(parent), root)
