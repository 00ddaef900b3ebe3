"""Seeded instance families for the benchmark.

Every instance is built from the benchmark seed alone and serialized to an
instance document (the text ``amocount count FILE`` would read).  Claims are
read off one acyclic moral orientation (AMO), so every count is positive by
construction: a lexicographic BFS order of a chordal graph is the reverse of
a perfect elimination ordering, and orienting every edge along it gives an
acyclic orientation without v-structures.

The engine is passed in as ``amo`` (the imported ``amocount`` package), so
that set-up can time a fresh import and use exactly that module.
"""

from __future__ import annotations

import math
import random

# Generator parameters of each workload.  One instance is the disjoint
# union of ``components`` draws of one family (an MEC with several chain
# components), which keeps the cost of one operation steady across seeds.
# Component j takes its size from the j-th of ``components`` equal slices of
# the size range, so every instance has a similar size profile.
WORKLOADS = {
    # LBFS-bound: about half of the top-level sweeps reject, so a faster or
    # early-stopping sweep shows here.
    "dense_amo": {
        "pool": 48,
        "components": 3,
        "n": (60, 100),
        # ER edge probability before fill-in, as a multiple of ln(n)/n
        # (the connectivity threshold, which random_chordal requires).
        "p_factor": (1.0, 1.6),
        "claims": 8,
    },
    # Many cliques, tiny LBFS sweeps, a memo hit per clique and sweep, and an
    # induced-graph build before every memo lookup, so per-subproblem
    # overhead shows here.
    "sparse_long": {
        "pool": 60,
        "components": 3,
        "n": (60, 100),
        "families": ("path", "caterpillar", "subtree"),
        "claims": (0, 3),
    },
    # The subset DP over 2^k prefixes dominates time and memory; component j
    # has k = 20 - j, so every instance reaches the default cap of 20.
    "psi_wide": {
        "pool": 48,
        "components": 3,
        "clique_size": (20, 24),
        "separator": (2, 8),
        "k": (18, 20),
    },
}

# Small single-component versions of each family for the brute-force oracle;
# sizes stay where enumeration takes milliseconds.
ORACLE_SPECS = {
    "dense_amo": {"pool": 6, "components": 1, "n": (5, 6), "p_factor": (1.0, 1.6), "claims": 3},
    "sparse_long": {
        "pool": 6,
        "components": 1,
        "n": (5, 6),
        "families": ("path", "caterpillar", "subtree"),
        "claims": (0, 3),
    },
    "psi_wide": {
        "pool": 6,
        "components": 1,
        "clique_size": (3, 4),
        "separator": (2, 3),
        "k": (2, 3),
    },
}

DEFAULT_SEED = 1


def _slice(lo, hi, j, count, a):
    """The whole number at fraction ``a`` of the j-th of ``count`` equal slices of [lo, hi]."""
    return int(lo + (hi + 1 - lo) * (j + a) / count)


def _r2(g):
    """Point g of the R2 low-discrepancy sequence in the unit square.

    Size parameters come from this fixed design rather than from the seed,
    so every seed covers the same sizes and only the graphs' structure
    varies between seeds.
    """
    return (0.5 + g * 0.7548776662466927) % 1.0, (0.5 + g * 0.5698402909980532) % 1.0


def lbfs_order(adj, vertices, first, rng):
    """Lexicographic BFS whose first cell is ``first``; ties broken at random.

    Plain partition refinement over lists, O(n^2); independent of the
    engine's own sweep on purpose.
    """
    first = set(first)
    cells = [[v for v in vertices if v in first], [v for v in vertices if v not in first]]
    cells = [c for c in cells if c]
    order = []
    while cells:
        cell = cells[0]
        v = cell.pop(rng.randrange(len(cell)))
        if not cell:
            del cells[0]
        order.append(v)
        nb = adj[v]
        refined = []
        for c in cells:
            inside = [u for u in c if u in nb]
            if 0 < len(inside) < len(c):
                refined.append(inside)
                refined.append([u for u in c if u not in nb])
            else:
                refined.append(c)
        cells = refined
    return order


def amo_arcs(adj, edges, order):
    """Orient ``edges`` along ``order``; raise unless the result is an AMO."""
    pos = {v: i for i, v in enumerate(order)}
    earlier = {v: [] for v in order}
    arcs = []
    for u, v in edges:
        if pos[u] > pos[v]:
            u, v = v, u
        arcs.append((u, v))
        earlier[v].append(u)
    # Earlier neighbours of every vertex must form a clique (no v-structure);
    # the latest of them must see all the others.
    for v, ps in earlier.items():
        if len(ps) > 1:
            w = max(ps, key=pos.__getitem__)
            if any(u != w and u not in adj[w] for u in ps):
                raise ValueError("order is not the reverse of a perfect elimination ordering")
    return arcs


def revealed_claims(amo, adj, vertices, edges, count, rng):
    """``count`` arcs of an AMO drawn from an LBFS seeded at a random maximal clique."""
    if count == 0 or not edges:
        return []
    g = amo.UndirectedGraph.from_vertices(vertices, edges)
    start = rng.choice(amo.maximal_cliques(g))
    arcs = amo_arcs(adj, edges, lbfs_order(adj, vertices, start, rng))
    return rng.sample(arcs, min(count, len(arcs)))


def _adjacency(n, edges):
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def caterpillar_edges(n, rng):
    """A spine of about half the vertices, every other vertex a leaf on it."""
    spine = max(2, n // 2)
    edges = path_edges(spine)
    for v in range(spine, n):
        edges.append((rng.randrange(spine), v))
    return edges


def subtree_edges(n, rng):
    """Intersection graph of subtrees of a long host tree (chordal, connected).

    The host tree is a spine with one pendant node per spine node.  Vertex i
    takes a spine interval that starts at or before the end of vertex i-1's
    interval (so the graph is connected) plus, with some probability, the
    pendant nodes of its interval.  Vertices sharing a host node are adjacent.
    """
    holders: dict = {}
    start = 0
    prev_end = 0
    for v in range(n):
        start = rng.randint(start, prev_end)
        end = start + rng.choice((0, 0, 1, 1, 2))
        prev_end = max(prev_end, end) if v else end
        for node in range(start, end + 1):
            holders.setdefault(("spine", node), []).append(v)
            if rng.random() < 0.3:
                holders.setdefault(("pendant", node), []).append(v)
    edges = set()
    for members in holders.values():
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def clique_tree_edges(sizes, separators, rng):
    """Union of cliques glued along a random tree, each sharing a separator
    with a random earlier clique."""
    cliques = [list(range(sizes[0]))]
    n = sizes[0]
    for size, sep in zip(sizes[1:], separators):
        parent = rng.choice(cliques)
        shared = rng.sample(parent, min(sep, len(parent), size - 1))
        fresh = list(range(n, n + size - len(shared)))
        n += len(fresh)
        cliques.append(shared + fresh)
    edges = set()
    for c in cliques:
        for i, a in enumerate(c):
            for b in c[i + 1 :]:
                edges.add((min(a, b), max(a, b)))
    return n, sorted(edges)


def dense_amo(amo, rng, spec, i, j, a, b):
    n = _slice(*spec["n"], j, spec["components"], a)
    lo, hi = spec["p_factor"]
    p = min(0.9, (lo + (hi - lo) * b) * math.log(n) / n)
    g = amo.random_chordal(amo.GenConfig(n=n, p_range=(p, p), seed=rng.randrange(2**31)))
    edges = g.edges()
    adj = _adjacency(n, edges)
    return n, edges, revealed_claims(amo, adj, range(n), edges, spec["claims"], rng)


def sparse_long(amo, rng, spec, i, j, a, b):
    n = _slice(*spec["n"], j, spec["components"], a)
    family = _family(spec, i)
    if family == "path":
        edges, claims = path_edges(n), 0
    elif family == "caterpillar":
        edges, claims = caterpillar_edges(n, rng), rng.randint(*spec["claims"])
    else:
        edges, claims = subtree_edges(n, rng), rng.randint(*spec["claims"])
    adj = _adjacency(n, edges)
    return n, edges, revealed_claims(amo, adj, range(n), edges, claims, rng)


def psi_wide(amo, rng, spec, i, j, a, b):
    """Two cliques sharing a separator, with claims touching k vertices per clique."""
    sizes = [rng.randint(*spec["clique_size"]) for _ in range(2)]
    n, edges = clique_tree_edges(sizes, [rng.randint(*spec["separator"])], rng)
    adj = _adjacency(n, edges)
    lo, hi = spec["k"]
    k = hi - j % (hi - lo + 1)
    g = amo.UndirectedGraph(n, edges)
    chosen = amo.gen_background(g, k, rng.randrange(2**31))
    # Keep gen_background's choice of edges, re-orient them along one AMO.
    start = rng.choice(amo.maximal_cliques(g))
    arcs = set(amo_arcs(adj, edges, lbfs_order(adj, range(n), start, rng)))
    return n, edges, [(u, v) if (u, v) in arcs else (v, u) for u, v in chosen]


GENERATORS = {"dense_amo": dense_amo, "sparse_long": sparse_long, "psi_wide": psi_wide}
FAMILIES = {"dense_amo": "random_chordal", "psi_wide": "clique_tree"}


def _family(spec, i):
    families = spec["families"]
    return families[i % len(families)]


def instance_text(amo, n, edges, claims, metadata):
    """Serialize through the engine's canonical instance format."""
    io = amo.instancefile
    graph = amo.PartiallyDirectedGraph(n, edges, ())
    instance = amo.MecInstance(graph, amo.BackgroundKnowledge(claims))
    return io.serialize_instance(io.InstanceDocument(io.default_labels(n), instance, metadata))


def _instance(amo, rng, name, spec, i):
    """Disjoint union of the instance's components, with shuffled vertex ids."""
    n, edges, claims, sizes = 0, [], [], []
    c = spec["components"]
    for j in range(c):
        a, b = _r2(i * c + j)
        size, comp_edges, comp_claims = GENERATORS[name](amo, rng, spec, i, j, a, b)
        edges += [(a + n, b + n) for a, b in comp_edges]
        claims += [(a + n, b + n) for a, b in comp_claims]
        sizes.append(size)
        n += size
    ids = list(range(n))
    rng.shuffle(ids)  # so that the engine's tie-breaks on ids favour no structure
    edges = [(ids[a], ids[b]) for a, b in edges]
    claims = [(ids[a], ids[b]) for a, b in claims]
    family = FAMILIES.get(name) or _family(spec, i)
    meta = {"family": family, "sizes": sizes, "claims": len(claims)}
    return instance_text(amo, n, edges, claims, meta), meta | {"n": n}


def build(amo, name, seed, spec=None, step=None):
    """The workload's instance documents for ``seed``, with their metadata.

    ``step``, when given, is called after each instance (set-up times the
    build in these steps).
    """
    spec = spec or WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}:{spec['pool']}")
    pool = []
    for i in range(spec["pool"]):
        pool.append(_instance(amo, rng, name, spec, i))
        if step:
            step()
    rng.shuffle(pool)
    return pool
