"""The undirected part of a mixed graph is stored only as neighbour masks;
every other view of it is read off them."""

import random

import pytest

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
    assert g.is_fully_directed == (not norm)
    if norm:
        u, v = min(norm)
        assert g != PartiallyDirectedGraph(n, sorted(norm - {(u, v)}), dire)
        assert g != PartiallyDirectedGraph(n, sorted(norm - {(u, v)}), [*dire, (u, v)])


def test_numpy_vertex_ids_give_python_int_masks():
    np = pytest.importorskip("numpy")
    ids = np.arange(4)
    g = PartiallyDirectedGraph(4, [(ids[1], ids[0]), (ids[2], ids[3])], [(ids[0], ids[2])])
    assert all(type(m) is int for m in g.undirected_masks())
    assert g == PartiallyDirectedGraph(4, [(0, 1), (2, 3)], [(0, 2)])
    assert g.undirected == frozenset({(0, 1), (2, 3)})
