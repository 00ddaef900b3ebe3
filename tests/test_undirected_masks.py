"""Undirected graphs, and the undirected part of a mixed graph, are stored
only as neighbour masks; every other view of them is read off the masks."""

import random

import pytest

from amocount.graphs import UndirectedGraph
from amocount.mec import PartiallyDirectedGraph


def messy_edge_lists(seed):
    """Vertex count, undirected edge list with repeats and reversed pairs,
    the normalised pair set, and directed edges on other vertex pairs."""
    rng = random.Random(40_000 + seed)
    n = rng.randint(1, 14)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    cut = rng.randint(0, len(pairs))
    norm = set(pairs[:cut])
    und = []
    for u, v in norm:
        for _ in range(rng.randint(1, 3)):
            und.append((v, u) if rng.random() < 0.5 else (u, v))
    rng.shuffle(und)
    dire = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in pairs[cut:]]
    dire = dire[: rng.randint(0, len(dire))]
    return n, und, norm, dire


@pytest.mark.parametrize("seed", range(200))
def test_every_view_matches_the_normalised_pairs(seed):
    n, und, norm, dire = messy_edge_lists(seed)
    g = PartiallyDirectedGraph(n, und, dire)
    ref = PartiallyDirectedGraph(n, sorted(norm), dire)
    assert g.undirected == ref.undirected == frozenset(norm)
    masks = [0] * n
    for u, v in norm:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    assert g.undirected_masks() == ref.undirected_masks() == tuple(masks)
    adj = {v: set() for v in range(n)}
    for u, v in [*norm, *dire]:
        adj[u].add(v)
        adj[v].add(u)
    assert g.skeleton_adjacency() == ref.skeleton_adjacency() == adj
    assert g == ref and hash(g) == hash(ref)
    if norm:
        u, v = min(norm)
        assert g != PartiallyDirectedGraph(n, sorted(norm - {(u, v)}), dire)
        assert g != PartiallyDirectedGraph(n, sorted(norm - {(u, v)}), [*dire, (u, v)])
    assert g.undirected_part() == UndirectedGraph(n, sorted(norm))

    rng = random.Random(41_000 + seed)
    check_views(UndirectedGraph(n, und), list(range(n)), norm, rng)
    for low in (rng.randint(1, 50), rng.randint(-60, -1)):
        labels = sorted(rng.sample(range(low, low + 3 * n), n))  # increasing, so u < v is kept
        relabelled = [(labels[u], labels[v]) for u, v in und]
        pairs = {(labels[u], labels[v]) for u, v in norm}
        check_views(UndirectedGraph.from_vertices(labels, relabelled), labels, pairs, rng)


def check_views(h, labels, pairs, rng):
    """Every view of the graph ``h`` over ``labels`` against a set-based
    reference for its edges ``pairs`` (u < v), then the same for a random
    induced subgraph."""
    adj = {v: set() for v in labels}
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    assert h.vertices == tuple(labels)
    assert h.vertex_set == frozenset(labels)
    assert h.edges() == sorted(pairs)
    assert h.num_edges == len(pairs)
    for v in labels:
        assert h.neighbors(v) == adj[v]
        assert [h.has_edge(v, u) for u in labels] == [u in adj[v] for u in labels]
    unknown = min(labels, default=0) - 1
    with pytest.raises(KeyError):
        h.has_edge(unknown, unknown)
    if labels:
        assert not h.has_edge(labels[0], unknown)
    same = UndirectedGraph.from_vertices(reversed(labels), [(v, u) for u, v in sorted(pairs)])
    assert h == same and hash(h) == hash(same)
    if pairs:
        assert h != UndirectedGraph.from_vertices(labels, sorted(pairs)[1:])
    with pytest.raises(ValueError):
        h.induced([*labels, unknown])
    sub = sorted(rng.sample(labels, rng.randint(0, len(labels))))
    inside = {(u, v) for u, v in pairs if {u, v} <= set(sub)}
    part = h.induced(reversed(sub))
    assert part == UndirectedGraph.from_vertices(sub, sorted(inside))
    if len(sub) < len(labels):
        check_views(part, sub, inside, rng)


def test_numpy_vertex_ids_give_python_int_masks():
    np = pytest.importorskip("numpy")
    ids = np.arange(4)
    g = PartiallyDirectedGraph(4, [(ids[1], ids[0]), (ids[2], ids[3])], [(ids[0], ids[2])])
    assert all(type(m) is int for m in g.undirected_masks())
    assert g == PartiallyDirectedGraph(4, [(0, 1), (2, 3)], [(0, 2)])
    assert g.undirected == frozenset({(0, 1), (2, 3)})
