"""Brute-force reference implementations used to pin the engine down."""

import itertools
import math
import random

import pytest

from amocount.graphs import UndirectedGraph, maximal_cliques
from amocount.mec import BackgroundKnowledge, PartiallyDirectedGraph
from amocount.oracle import (
    DEFAULT_ORACLE_CAP,
    OracleCapError,
    amos_by_vertex_orders,
    amos_represented_by,
    enumerate_amos,
    union_graph,
    v_structures,
)
from conftest import random_claims, random_uccg

STAR = UndirectedGraph(4, [(0, 1), (0, 2), (0, 3)])


def complete_graph(n):
    return UndirectedGraph(n, itertools.combinations(range(n), 2))


def as_pdg(g: UndirectedGraph) -> PartiallyDirectedGraph:
    return PartiallyDirectedGraph(g.n, g.edges(), ())


class TestVStructures:
    def test_collider_detected(self):
        g = PartiallyDirectedGraph(3, [], [(0, 2), (1, 2)])
        assert v_structures(g) == frozenset({(0, 2, 1)})

    def test_shielded_collider_is_not_one(self):
        g = PartiallyDirectedGraph(3, [(0, 1)], [(0, 2), (1, 2)])
        assert v_structures(g) == frozenset()

    def test_chain_has_none(self):
        g = PartiallyDirectedGraph(3, [], [(0, 1), (1, 2)])
        assert v_structures(g) == frozenset()


class TestEnumerateAmos:
    def test_star_orientations(self):
        # any two arcs into the hub collide, so: all out, or exactly one in
        assert len(enumerate_amos(as_pdg(STAR))) == 4

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_complete_graph(self, n):
        assert len(enumerate_amos(as_pdg(complete_graph(n)))) == math.factorial(n)

    def test_every_output_is_a_dag_extension(self):
        base = PartiallyDirectedGraph(4, [(0, 1), (0, 2), (1, 2)], [(0, 3)])
        outs = enumerate_amos(base)
        for o in outs:
            assert not any(o.undirected_masks())
            assert o.skeleton_pairs == base.skeleton_pairs
            assert base.directed <= o.directed
            assert v_structures(o) == v_structures(base)

    def test_knowledge_filters(self):
        g = as_pdg(complete_graph(3))
        assert len(enumerate_amos(g, BackgroundKnowledge([(0, 1)]))) == 3
        assert len(enumerate_amos(g, BackgroundKnowledge([(0, 1), (1, 2)]))) == 1
        assert len(enumerate_amos(g, BackgroundKnowledge([(0, 1), (1, 0)]))) == 0

    def test_cap(self):
        g = as_pdg(complete_graph(DEFAULT_ORACLE_CAP + 1))
        with pytest.raises(OracleCapError):
            enumerate_amos(g)
        assert len(enumerate_amos(as_pdg(complete_graph(4)), cap=4)) == 24

    @pytest.mark.parametrize("seed", range(40))
    def test_two_strategies_agree(self, seed):
        """Edge backtracking and vertex-order filtering count the same sets."""
        g = random_uccg(seed, 2, 6)
        by_edges = enumerate_amos(as_pdg(g))
        by_orders = amos_by_vertex_orders(g)
        assert len(by_edges) == len(by_orders)
        assert frozenset(o.directed for o in by_edges) == by_orders


class TestAmosRepresentedBy:
    def test_partition_into_clique_classes(self):
        """Every orientation is represented; classes can overlap across roots."""
        g = UndirectedGraph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        all_amos = frozenset(o.directed for o in enumerate_amos(as_pdg(g)))
        seen = set()
        for c in maximal_cliques(g):
            reps = amos_represented_by(g, c)
            arcs = frozenset(o.directed for o in reps)
            assert arcs <= all_amos
            seen |= arcs
        assert seen == all_amos

    @pytest.mark.parametrize("seed", range(25))
    def test_union_covers_everything(self, seed):
        g = random_uccg(seed, 3, 6)
        all_amos = frozenset(o.directed for o in enumerate_amos(as_pdg(g)))
        seen = set()
        for c in maximal_cliques(g):
            seen |= {o.directed for o in amos_represented_by(g, c)}
        assert seen == all_amos


class TestUnionGraph:
    def test_unanimous_arcs_stay_directed(self):
        a = PartiallyDirectedGraph(3, [], [(0, 1), (1, 2)])
        b = PartiallyDirectedGraph(3, [], [(0, 1), (2, 1)])
        u = union_graph([a, b])
        assert u.directed == frozenset({(0, 1)})
        assert u.undirected == frozenset({(1, 2)})

    def test_single_orientation_is_returned_as_is(self):
        a = PartiallyDirectedGraph(3, [], [(0, 1), (1, 2)])
        u = union_graph([a])
        assert u.directed == a.directed

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            union_graph([])


class TestRandomizedAgainstEngine:
    """The oracle is itself pinned by the frozen examples elsewhere; here we
    only make sure its two halves stay consistent under knowledge."""

    @pytest.mark.parametrize("seed", range(30))
    def test_knowledge_subsets_shrink(self, seed):
        g = random_uccg(seed, 3, 6)
        rng = random.Random(30_000 + seed)
        k = random_claims(g, rng, "oriented")
        full = enumerate_amos(as_pdg(g))
        filtered = enumerate_amos(as_pdg(g), k)
        assert len(filtered) <= len(full)
        want = {o.directed for o in full if all(p in o.directed for p in k)}
        assert {o.directed for o in filtered} == want
