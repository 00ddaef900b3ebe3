"""Undirected graph primitives: components, LBFS, chordality, clique trees."""

import itertools
import random

import pytest

from amocount.graphs import (
    RootedCliqueTree,
    UndirectedGraph,
    _mcs_cliques,
    clique_tree,
    is_chordal,
    lbfs_order,
    maximal_cliques,
)
from amocount.oracle import (
    _is_lbfs_ordering,
    _reroot,
    connected_components,
    forbidden_prefixes,
    is_chordal_by_elimination,
)
from conftest import random_uccg

# the two running examples: a triangle with a pendant edge, and a
# seven-vertex graph whose maximal cliques overlap in pairs
PAW = UndirectedGraph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
THREE_CLIQUES = UndirectedGraph(
    7,
    [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
     (2, 4), (2, 5), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6)],
)


def complete(n):
    return UndirectedGraph(n, itertools.combinations(range(n), 2))


def cycle(n):
    return UndirectedGraph(n, [(i, (i + 1) % n) for i in range(n)])


def brute_chordal(g):
    """No induced cycle of length >= 4: a connected 2-regular induced subgraph."""
    vs = sorted(g.vertices)
    for size in range(4, len(vs) + 1):
        for sub in itertools.combinations(vs, size):
            inside = set(sub)
            adj = {v: [u for u in g.neighbors(v) if u in inside] for v in sub}
            if any(len(adj[v]) != 2 for v in sub):
                continue
            seen = {sub[0]}
            stack = [sub[0]]
            while stack:
                for u in adj[stack.pop()]:
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
            if len(seen) == size:
                return False
    return True


def brute_maximal_cliques(g):
    vs = sorted(g.vertices)
    cliques = []
    for size in range(1, len(vs) + 1):
        for sub in itertools.combinations(vs, size):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(sub, 2)):
                cliques.append(set(sub))
    return sorted(
        tuple(sorted(c)) for c in cliques
        if not any(c < other for other in cliques)
    )


class TestUndirectedGraph:
    def test_dense_constructor(self):
        g = UndirectedGraph(3, [(0, 1), (2, 1)])
        assert g.n == 3
        assert g.edges() == [(0, 1), (1, 2)]
        assert g.neighbors(1) == frozenset({0, 2})
        assert g.has_edge(1, 0) and not g.has_edge(0, 2)

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            UndirectedGraph(2, [(0, 0)])
        with pytest.raises(ValueError):
            UndirectedGraph(2, [(0, 5)])

    def test_from_vertices_keeps_labels(self):
        g = UndirectedGraph.from_vertices([4, 7, 9], [(4, 9)])
        assert g.vertex_set == frozenset({4, 7, 9})
        assert g.has_edge(9, 4)
        assert g.neighbors(7) == frozenset()

    def test_induced_preserves_labels(self):
        sub = THREE_CLIQUES.induced({2, 3, 4, 6})
        assert sub.vertex_set == frozenset({2, 3, 4, 6})
        assert sub.edges() == [(2, 3), (2, 4), (3, 4), (4, 6)]

    def test_equality_and_hash(self):
        a = UndirectedGraph(3, [(0, 1)])
        b = UndirectedGraph.from_vertices([0, 1, 2], [(1, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != UndirectedGraph(3, [(0, 2)])


class TestComponents:
    def test_partition_and_order(self):
        g = UndirectedGraph(6, [(0, 3), (1, 4)])
        comps = connected_components(g)
        assert comps == [frozenset({0, 3}), frozenset({1, 4}), frozenset({2}), frozenset({5})]

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_reachability(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 9)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.25]
        g = UndirectedGraph(n, edges)
        # transitive closure as an independent reachability check
        reach = {v: {v} for v in range(n)}
        for u, v in edges:
            reach[u].add(v)
            reach[v].add(u)
        changed = True
        while changed:
            changed = False
            for v in range(n):
                grown = set(reach[v])
                for u in reach[v]:
                    grown |= reach[u]
                if grown != reach[v]:
                    reach[v] = grown
                    changed = True
        expect = sorted({frozenset(reach[v]) for v in range(n)}, key=min)
        assert connected_components(g) == expect

    @pytest.mark.parametrize("seed", range(30))
    def test_sparse_and_negative_labels_match_a_set_bfs(self, seed):
        rng = random.Random(7_000 + seed)
        labels = rng.sample(range(-10**9, 10**9), rng.randint(1, 12))
        edges = [e for e in itertools.combinations(labels, 2) if rng.random() < 0.2]
        g = UndirectedGraph.from_vertices(labels, edges)
        expect, left = [], set(labels)
        for start in sorted(labels):
            if start in left:
                seen, queue = {start}, [start]
                while queue:
                    for u in g.neighbors(queue.pop()):
                        if u not in seen:
                            seen.add(u)
                            queue.append(u)
                left -= seen
                expect.append(frozenset(seen))
        assert connected_components(g) == expect


class TestLbfs:
    @pytest.mark.parametrize("seed", range(25))
    def test_reverse_is_perfect_elimination(self, seed):
        g = random_uccg(seed, 3, 9)
        order = lbfs_order(g)
        assert sorted(order) == sorted(g.vertices)
        pos = {v: i for i, v in enumerate(order)}
        for v in order:
            earlier = [u for u in g.neighbors(v) if pos[u] < pos[v]]
            for a, b in itertools.combinations(earlier, 2):
                assert g.has_edge(a, b), (v, a, b)

    def test_tie_break_is_lowest_id(self):
        g = UndirectedGraph(4, [(0, 1), (0, 2), (0, 3)])
        assert lbfs_order(g)[0] == 0

    @pytest.mark.parametrize("seed", range(40))
    def test_order_is_an_lbfs_ordering(self, seed):
        g = random_uccg(seed, 1, 12)
        assert _is_lbfs_ordering(g, lbfs_order(g))

    @pytest.mark.parametrize("seed", range(20))
    def test_sparse_labels_keep_order_and_cliques(self, seed):
        """Bits are sorted positions, so an order-preserving relabelling to
        negative, sparse or huge labels maps orders and cliques across."""
        g = random_uccg(seed, 1, 12)
        rng = random.Random(seed)
        labels = sorted({rng.randrange(-(10**6), 2**70) for _ in range(g.n)})
        assert len(labels) == g.n
        relabel = dict(zip(g.vertices, labels))
        h = UndirectedGraph.from_vertices(labels, [(relabel[u], relabel[v]) for u, v in g.edges()])
        assert lbfs_order(h) == [relabel[v] for v in lbfs_order(g)]
        assert maximal_cliques(h) == [tuple(relabel[v] for v in c) for c in maximal_cliques(g)]


class TestChordality:
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_cycles_are_not_chordal(self, n):
        assert not is_chordal(cycle(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_complete_graphs_are_chordal(self, n):
        assert is_chordal(complete(n))

    def test_examples(self):
        assert is_chordal(PAW)
        assert is_chordal(THREE_CLIQUES)

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_chordless_cycle_search(self, seed):
        rng = random.Random(900 + seed)
        n = rng.randint(1, 7)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.45]
        g = UndirectedGraph(n, edges)
        assert is_chordal(g) == brute_chordal(g), (n, edges)


def search_verdicts(g):
    """Per component of ``g``, by lowest vertex: whether the maximum
    cardinality search over all of ``g`` failed a chordality check inside
    it, and whether simplicial elimination finds it not chordal."""
    bit, nbr = g.bit, g.nbr
    nonchordal = _mcs_cliques(nbr, (1 << g.n) - 1)[2]
    return [
        (
            bool(sum(map(bit.__getitem__, comp)) & nonchordal),
            not is_chordal_by_elimination(g.induced(comp)),
        )
        for comp in connected_components(g)
    ]


def random_graphs(seed):
    """Ten seeded graphs of 1 to 12 vertices, each with its own edge
    probability, so that sparse draws split into several components."""
    rng = random.Random(7_300 + seed)
    for _ in range(10):
        n = rng.randint(1, 12)
        p = rng.uniform(0.05, 0.9)
        yield UndirectedGraph(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        )


class TestSearchChordality:
    """The search's chordality checks against an independent reference."""

    def test_every_graph_up_to_six_vertices(self):
        seen = set()
        for n in range(1, 7):
            pairs = list(itertools.combinations(range(n), 2))
            for chosen in range(1 << len(pairs)):
                g = UndirectedGraph(n, [e for i, e in enumerate(pairs) if chosen >> i & 1])
                verdicts = search_verdicts(g)
                for found, expected in verdicts:
                    assert found == expected, (n, g.edges())
                    seen.add(expected)
                assert is_chordal(g) == (not any(expected for _, expected in verdicts))
        assert seen == {False, True}

    @pytest.mark.parametrize("seed", range(40))
    def test_random_graphs_up_to_twelve_vertices(self, seed):
        for g in random_graphs(seed):
            verdicts = search_verdicts(g)
            assert [found for found, _ in verdicts] == [bad for _, bad in verdicts], g.edges()
            assert is_chordal(g) == is_chordal_by_elimination(g)

    def test_random_draws_reach_both_verdicts(self):
        # on components of four or more vertices, where a chordless cycle fits
        seen = {
            is_chordal_by_elimination(g.induced(c))
            for seed in range(40)
            for g in random_graphs(seed)
            for c in connected_components(g)
            if len(c) >= 4
        }
        assert seen == {False, True}


class TestMaximalCliques:
    def test_examples(self):
        assert maximal_cliques(PAW) == [(0, 1, 2), (2, 3)]
        assert maximal_cliques(THREE_CLIQUES) == [(0, 1, 2, 3), (2, 3, 4, 5), (4, 5, 6)]

    def test_rejects_non_chordal(self):
        with pytest.raises(ValueError):
            maximal_cliques(cycle(4))

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force(self, seed):
        g = random_uccg(seed, 2, 8)
        assert maximal_cliques(g) == brute_maximal_cliques(g)


class TestCliqueTree:
    def test_example_tree(self):
        t = clique_tree(THREE_CLIQUES)
        assert t.nodes == ((0, 1, 2, 3), (2, 3, 4, 5), (4, 5, 6))
        assert t.parent == (None, 0, 1)
        assert t.root == 0
        assert t.children(0) == (1,)

    def test_single_clique(self):
        t = clique_tree(complete(4))
        assert t.nodes == ((0, 1, 2, 3),)
        assert t.parent == (None,)

    def test_requires_connected(self):
        with pytest.raises(ValueError):
            clique_tree(UndirectedGraph(4, [(0, 1), (2, 3)]))

    def test_node_index_rejects_unknown(self):
        t = clique_tree(PAW)
        with pytest.raises(ValueError, match="not a node of the clique tree"):
            forbidden_prefixes(t, (0, 3))

    @pytest.mark.parametrize("seed", range(40))
    def test_induced_subtree_property(self, seed):
        """Nodes containing any fixed vertex form a connected subtree."""
        g = random_uccg(seed, 3, 10)
        t = clique_tree(g)
        assert len(t.nodes) == len(maximal_cliques(g))
        for v in g.vertices:
            holding = {i for i, c in enumerate(t.nodes) if v in c}
            # walk up from each holder; the meeting point must hold v too
            for i in holding:
                j = t.parent[i]
                while j is not None and v in t.nodes[j]:
                    j = t.parent[j]
                # every holder chain must exit through holding nodes only
                up = i
                seen = []
                while up is not None and v in t.nodes[up]:
                    seen.append(up)
                    up = t.parent[up]
                assert set(seen) <= holding
            roots = [i for i in holding if t.parent[i] not in holding]
            assert len(roots) == 1, (v, holding)

    @pytest.mark.parametrize("seed", range(20))
    def test_every_root_gives_valid_tree(self, seed):
        g = random_uccg(seed, 3, 7)
        base = clique_tree(g)

        def links(t):
            return {frozenset((c, t.nodes[p])) for c, p in zip(t.nodes, t.parent) if p is not None}

        for i, c in enumerate(base.nodes):
            nodes, parent = _reroot(list(base.nodes), list(base.parent), i)
            t = RootedCliqueTree(tuple(nodes), tuple(parent), 0)
            assert sorted(t.nodes) == sorted(base.nodes)
            assert t.nodes[t.root] == c
            assert links(t) == links(base)
