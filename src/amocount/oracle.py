"""Brute-force ground truth and set-based references for desk-scale
instances.

Everything here enumerates explicitly or works on vertex sets, and is meant
for cross-checking the engine's mask code on small inputs, never for
production counting.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

from .counting import DEFAULT_PERMUTATION_CAP, _PermCounter, _pairs_of, _phi_with_ctx
from .graphs import (
    UndirectedGraph,
    _claim_masks,
    _iter_bits,
    _lbfs,
    _mask_components,
)
from .mec import PartiallyDirectedGraph, _is_acyclic

DEFAULT_ORACLE_CAP = 9


class OracleCapError(RuntimeError):
    def __init__(self, size: int, cap: int):
        super().__init__(
            f"oracle enumeration requested for {size} vertices; capped at {cap}"
        )
        self.size = size
        self.cap = cap


def v_structures(graph: PartiallyDirectedGraph) -> frozenset:
    """Triples (a, b, c), a < c, with a -> b <- c and a, c nonadjacent."""
    adj = graph.skeleton_adjacency()
    parents: dict[int, set] = {}
    for u, v in graph.directed:
        parents.setdefault(v, set()).add(u)
    out = set()
    for b, ps in parents.items():
        for a, c in combinations(sorted(ps), 2):
            if c not in adj[a]:
                out.add((a, b, c))
    return frozenset(out)


def enumerate_amos(
    graph: PartiallyDirectedGraph, knowledge=None, *, cap: int = DEFAULT_ORACLE_CAP
) -> tuple:
    """All acyclic orientations of the undirected edges that keep the
    v-structure set unchanged and honor every knowledge claim.

    Backtracks over the undirected edges, pruning a direction as soon as it
    contradicts a claim or creates a collider outside the original
    v-structure set; acyclicity is checked once per completed orientation.
    """
    if graph.n > cap:
        raise OracleCapError(graph.n, cap)
    pairs = _pairs_of(knowledge)
    skeleton = graph.skeleton_pairs
    for u, v in pairs:
        if (min(u, v), max(u, v)) not in skeleton:
            raise ValueError(f"claim {u}->{v} is not an edge of the skeleton")
    if any((v, u) in graph.directed for (u, v) in pairs):
        return ()
    base = v_structures(graph)
    adj = graph.skeleton_adjacency()
    und = sorted(graph.undirected)
    parents: dict[int, set] = {v: set() for v in range(graph.n)}
    for u, v in graph.directed:
        parents[v].add(u)
    assigned: list = []
    results: list = []

    def makes_new_collider(x, y) -> bool:
        for p in parents[y]:
            if p != x and p not in adj[x]:
                if (min(p, x), y, max(p, x)) not in base:
                    return True
        return False

    def walk(i: int):
        if i == len(und):
            arcs = graph.directed | frozenset(assigned)
            if _is_acyclic(graph.n, arcs):
                results.append(arcs)
            return
        a, b = und[i]
        for x, y in ((a, b), (b, a)):
            if (y, x) in pairs:
                continue
            if makes_new_collider(x, y):
                continue
            parents[y].add(x)
            assigned.append((x, y))
            walk(i + 1)
            assigned.pop()
            parents[y].discard(x)

    walk(0)
    return tuple(
        PartiallyDirectedGraph(graph.n, (), arcs) for arcs in results
    )


def amos_by_vertex_orders(g: UndirectedGraph, *, cap: int = 7) -> frozenset:
    """Second, independent enumeration for connected chordal graphs.

    Every vertex order induces an acyclic orientation; keep those in which
    each vertex's earlier neighbors are pairwise adjacent (no collider
    appears), and deduplicate.  Factorial cost, so the cap is small.
    """
    if g.n > cap:
        raise OracleCapError(g.n, cap)
    _require_dense(g)
    out = set()
    for tau in permutations(g.vertices):
        pos = {v: i for i, v in enumerate(tau)}
        ok = True
        for v in g.vertices:
            earlier = [u for u in g.neighbors(v) if pos[u] < pos[v]]
            for a, b in combinations(earlier, 2):
                if not g.has_edge(a, b):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.add(
                frozenset(
                    (u, v) if pos[u] < pos[v] else (v, u) for u, v in g.edges()
                )
            )
    return frozenset(out)


def _require_dense(g: UndirectedGraph):
    if g.vertices != tuple(range(g.n)):
        raise ValueError("oracle operations need dense vertex labels 0..n-1")


def _is_lbfs_ordering(g: UndirectedGraph, tau) -> bool:
    """Check a full vertex order by forcing LBFS to pick it."""
    cells = [set(g.vertices)]
    remaining = set(g.vertices)
    for v in tau:
        while cells and not cells[0]:
            cells.pop(0)
        if not cells or v not in cells[0]:
            return False
        cells[0].discard(v)
        remaining.discard(v)
        nv = g.neighbors(v) & remaining
        split = []
        for cell in cells:
            inter = cell & nv
            rest = cell - nv
            if inter:
                split.append(inter)
            if rest:
                split.append(rest)
        cells = split
    return True


def is_chordal_by_elimination(g: UndirectedGraph) -> bool:
    """Whether ``g`` is chordal, by deleting simplicial vertices (those whose
    neighbours are pairwise adjacent) one at a time: a graph is chordal
    exactly when that empties it (Fulkerson and Gross 1965)."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    while adj:
        simplicial = next(
            (v for v, nb in adj.items() if all(b in adj[a] for a, b in combinations(nb, 2))),
            None,
        )
        if simplicial is None:
            return False
        for u in adj.pop(simplicial):
            adj[u].discard(simplicial)
    return True


def amos_represented_by(g: UndirectedGraph, clique, *, cap: int = DEFAULT_ORACLE_CAP) -> tuple:
    """Orientations induced by LBFS orders that start with ``clique``.

    Enumerates all candidate orders (clique vertices first), keeps the valid
    LBFS orders, and deduplicates the induced orientations.
    """
    if g.n > cap:
        raise OracleCapError(g.n, cap)
    _require_dense(g)
    c = frozenset(clique)
    if not _is_maximal_clique(g, c):
        raise ValueError(f"{sorted(c)} is not a maximal clique of the graph")
    rest = sorted(g.vertex_set - c)
    edges = g.edges()
    seen = set()
    ordered = []
    for head in permutations(sorted(c)):
        for tail in permutations(rest):
            tau = head + tail
            if not _is_lbfs_ordering(g, tau):
                continue
            pos = {v: i for i, v in enumerate(tau)}
            arcs = frozenset(
                (u, v) if pos[u] < pos[v] else (v, u) for u, v in edges
            )
            if arcs not in seen:
                seen.add(arcs)
                ordered.append(arcs)
    return tuple(PartiallyDirectedGraph(g.n, (), arcs) for arcs in ordered)


def union_graph(orientations) -> PartiallyDirectedGraph:
    """Edge-wise union: directed where all members agree, else undirected."""
    members = list(orientations)
    if not members:
        raise ValueError("empty orientation set")
    n = members[0].n
    skeleton = members[0].skeleton_pairs
    for m in members[1:]:
        if m.n != n or m.skeleton_pairs != skeleton:
            raise ValueError("orientation set members differ in skeleton")
    masks = [m.undirected_masks() for m in members]
    undirected = []
    directed = []
    for u, v in sorted(skeleton):
        both = any(um[u] >> v & 1 for um in masks)  # undirected in some member
        fwd = both or any((u, v) in m.directed for m in members)
        bwd = both or any((v, u) in m.directed for m in members)
        if fwd and bwd:
            undirected.append((u, v))
        elif fwd:
            directed.append((u, v))
        else:
            directed.append((v, u))
    return PartiallyDirectedGraph(n, undirected, directed)


def _perm_counter(vertex_set, knowledge, psi_cap: int) -> tuple[_PermCounter, dict]:
    """A ``_PermCounter`` over ``vertex_set``, whose i-th smallest member
    holds bit i, and the map from members to bits; every claim must lie
    inside the set."""
    bit = {v: 1 << i for i, v in enumerate(sorted(frozenset(vertex_set)))}
    pairs = _pairs_of(knowledge)
    for u, v in pairs:
        if u not in bit or v not in bit:
            raise ValueError(f"claim {u}->{v} has an endpoint outside the vertex set")
    return _PermCounter(psi_cap, *_claim_masks(bit, pairs)), bit


def psi(vertex_set, knowledge, *, psi_cap: int = DEFAULT_PERMUTATION_CAP) -> int:
    """Number of permutations of ``vertex_set`` consistent with the claims."""
    ctx, bit = _perm_counter(vertex_set, knowledge, psi_cap)
    return ctx.psi_value(tuple(range(len(bit))))


def phi(vertex_set, chain, knowledge, *, psi_cap: int = DEFAULT_PERMUTATION_CAP) -> int:
    """Consistent permutations of ``vertex_set`` that start with no set of
    ``chain``: nonempty sets, each strictly inside the next and the last
    strictly inside ``vertex_set``."""
    ctx, bit = _perm_counter(vertex_set, knowledge, psi_cap)
    sets = [frozenset(r) for r in chain]
    if sets and not sets[0]:
        raise ValueError("forbidden prefix must not be empty")
    for a, b in zip(sets, sets[1:]):
        if not a < b:
            raise ValueError("prefix chain is not strictly nested")
    if sets and not sets[-1] < bit.keys():
        raise ValueError("chain is not strictly nested inside the host set")
    chain = []
    for r in sets:
        mask = sum(map(bit.__getitem__, r))
        sources = 0
        for v in _iter_bits(mask):
            sources |= ctx.preds[v]
        chain.append((mask, sources & ~mask))
    return _phi_with_ctx(ctx, (1 << len(bit)) - 1, tuple(chain), {})


def psi_bruteforce(vertex_set, knowledge) -> int:
    """Filter all permutations; test oracle for the linear-extension count."""
    members = sorted(frozenset(vertex_set))
    pairs = _pairs_of(knowledge)
    count = 0
    for perm in permutations(members):
        pos = {v: i for i, v in enumerate(perm)}
        if all(pos[u] < pos[v] for u, v in pairs):
            count += 1
    return count


def phi_bruteforce(vertex_set, chain, knowledge) -> int:
    """Filter all permutations against claims and forbidden prefixes."""
    members = sorted(frozenset(vertex_set))
    pairs = _pairs_of(knowledge)
    chain_sets = [frozenset(s) for s in chain]
    count = 0
    for perm in permutations(members):
        pos = {v: i for i, v in enumerate(perm)}
        if not all(pos[u] < pos[v] for u, v in pairs):
            continue
        if any(frozenset(perm[: len(r)]) == r for r in chain_sets):
            continue
        count += 1
    return count


def connected_components(g: UndirectedGraph) -> list[frozenset]:
    """Components as vertex sets, ordered by their smallest vertex."""
    vs = g.vertices
    return [
        frozenset(vs[i] for i in _iter_bits(c)) for c in _mask_components(g.nbr, (1 << g.n) - 1)
    ]


def _is_maximal_clique(g: UndirectedGraph, members: frozenset) -> bool:
    if not members or not members <= g.vertex_set:
        return False
    for v in members:
        if not members - {v} <= g.neighbors(v):
            return False
    common = None
    for v in members:
        common = g.neighbors(v) if common is None else common & g.neighbors(v)
    return not (common - members)


@dataclass(frozen=True)
class LbfsResult:
    flag: bool
    components: tuple


def lbfs_background(g: UndirectedGraph, clique, knowledge) -> LbfsResult:
    """Knowledge-aware LBFS seeded with a maximal clique.

    Returns the consistency flag (False when orienting the graph away from
    ``clique`` would reverse some claim) and the subproblem components left
    behind by the sweep.  It is the reference for ``_group_table``'s flags.
    """
    c = frozenset(clique)
    if not _is_maximal_clique(g, c):
        raise ValueError(f"{sorted(c)} is not a maximal clique of the graph")
    pairs = _pairs_of(knowledge)
    for u, v in pairs:
        if u not in g.bit or not g.has_edge(u, v):
            raise ValueError(f"claim {u}->{v} is not an edge of the graph")
    bit = g.bit
    preds, _ = _claim_masks(bit, pairs)
    flag, comps, _ = _lbfs(g.nbr, (1 << g.n) - 1, sum(map(bit.__getitem__, c)), preds, True)
    vs = g.vertices
    return LbfsResult(bool(flag), tuple(frozenset(vs[i] for i in _iter_bits(h)) for h in comps))


def forbidden_prefixes(tree, clique) -> tuple:
    """Separators along the root path of ``clique``, a node of the rooted
    clique ``tree``, that sit inside it, as frozensets, smallest first; the
    reference for the chains of ``counting._group_table``.

    The distinct qualifying separators always form one strictly nested
    chain; anything else signals a broken clique tree.
    """
    key = tuple(sorted(clique))
    if key not in tree.nodes:
        raise ValueError(f"{key} is not a node of the clique tree")
    i = tree.nodes.index(key)
    cset = frozenset(key)
    found = set()
    while tree.parent[i] is not None:
        p = tree.parent[i]
        sep = frozenset(tree.nodes[i]) & frozenset(tree.nodes[p])
        if sep <= cset:
            found.add(sep)
        i = p
    ordered = sorted(found, key=len)
    for x, y in zip(ordered, ordered[1:]):
        if not x < y:
            raise RuntimeError(
                "forbidden prefixes are not nested; the clique tree violates"
                " the intersection property"
            )
    if ordered and not ordered[-1] < cset:
        raise RuntimeError("forbidden prefix equals its clique")
    return tuple(ordered)


def _reroot(cliques: list, parents: list, root: int) -> tuple[list, list]:
    """The clique tree re-rooted at clique ``root``, as new lists.

    ``parents`` lists each clique's parent (None at the root), parents before
    their children.  The links on the path from ``root`` to the old root are
    reversed, and the cliques are renumbered so that parents again come
    first: that path, then the other cliques in their old order.
    """
    path = [root]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    on_path = set(path)
    order = path + [i for i in range(len(parents)) if i not in on_path]
    new = {old: i for i, old in enumerate(order)}
    ups = [None, *range(len(path) - 1)] + [new[parents[i]] for i in order[len(path):]]
    return [cliques[i] for i in order], ups
