"""Seeded instance generation: chordal draws, knowledge top-up, growth."""

import hashlib
import random

import pytest

from amocount.bench import make_instance
from amocount.counting import count_session
from amocount.generators import (
    GenConfig,
    GenerationError,
    gen_amo_claims,
    gen_background,
    grow_background,
    random_chordal,
    random_chordal_with_stats,
)
from amocount.graphs import UndirectedGraph, is_chordal, maximal_cliques
from amocount.instancefile import InstanceDocument, default_labels, serialize_instance
from amocount.mec import BackgroundKnowledge, MecInstance, max_clique_knowledge
from amocount.oracle import connected_components, psi
from conftest import uccg_instance


def claims_inside(clique, knowledge):
    c = set(clique)
    return [(u, v) for u, v in knowledge if u in c and v in c]


def covered_in(clique, knowledge):
    return frozenset(x for pair in claims_inside(clique, knowledge) for x in pair)


class TestGenConfig:
    def test_defaults(self):
        cfg = GenConfig(n=10)
        assert cfg.p_range == (0.1, 0.3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0},
            {"n": 5, "p_range": (0.0, 0.3)},
            {"n": 5, "p_range": (0.4, 0.2)},
            {"n": 5, "p_range": (0.1, 1.0)},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            GenConfig(**kwargs)


class TestRandomChordal:
    def test_deterministic(self):
        a = random_chordal(GenConfig(n=30, seed=5))
        b = random_chordal(GenConfig(n=30, seed=5))
        assert a == b
        assert a != random_chordal(GenConfig(n=30, seed=6))

    def test_reports_draw_stats(self):
        g, info = random_chordal_with_stats(GenConfig(n=25, seed=3))
        assert g.n == 25
        assert 0.1 <= info["p"] < 0.3
        assert info["attempts"] >= 1

    def test_single_vertex(self):
        g = random_chordal(GenConfig(n=1, seed=0))
        assert g.n == 1 and g.num_edges == 0

    def test_draws_build_no_edge_list(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("random_chordal built its graph from an edge list")

        monkeypatch.setattr(UndirectedGraph, "_init_from", forbidden)
        graphs = [random_chordal(GenConfig(n=n, seed=seed)) for seed, n in enumerate((1, 2, 9, 30))]
        monkeypatch.undo()
        for g in graphs:
            assert g == UndirectedGraph(g.n, g.edges())
            assert is_chordal(g)

    def test_thousand_draws_are_chordal_and_connected(self):
        sizes = list(range(10, 201, 10))
        for seed in range(1000):
            n = sizes[seed % len(sizes)]
            g = random_chordal(GenConfig(n=n, seed=seed))
            assert g.n == n
            assert is_chordal(g), (n, seed)
            assert len(connected_components(g)) == 1, (n, seed)


class TestGenBackground:
    @pytest.mark.parametrize("seed", range(25))
    def test_exact_coverage_per_clique(self, seed):
        rng = random.Random(90_000 + seed)
        n = rng.choice([12, 16, 20, 26])
        k = rng.choice([2, 3, 4, 5])
        g = random_chordal(GenConfig(n=n, seed=seed))
        kn = gen_background(g, k, seed)
        for c in maximal_cliques(g):
            assert len(covered_in(c, kn)) == min(k, len(c)), (n, k, seed, c)

    @pytest.mark.parametrize("seed", range(25))
    def test_each_clique_remains_satisfiable(self, seed):
        rng = random.Random(91_000 + seed)
        n = rng.choice([12, 18, 24])
        k = rng.choice([3, 4, 5])
        g = random_chordal(GenConfig(n=n, seed=seed))
        kn = gen_background(g, k, seed)
        for c in maximal_cliques(g):
            assert psi(covered_in(c, kn), claims_inside(c, kn)) > 0

    def test_deterministic(self):
        g = random_chordal(GenConfig(n=20, seed=2))
        assert gen_background(g, 4, 7) == gen_background(g, 4, 7)
        assert gen_background(g, 4, 7) != gen_background(g, 4, 8)

    def test_claims_are_graph_edges(self):
        g = random_chordal(GenConfig(n=18, seed=4))
        kn = gen_background(g, 3, 1)
        for u, v in kn:
            assert g.has_edge(u, v)

    def test_small_cliques_are_fully_covered(self):
        # k above every clique size still covers whole cliques, no error
        g = random_chordal(GenConfig(n=8, seed=11))
        top = max(len(c) for c in maximal_cliques(g))
        kn = gen_background(g, top + 3, 0)
        for c in maximal_cliques(g):
            assert len(covered_in(c, kn)) == len(c)

    def test_rejects_bad_k(self):
        g = random_chordal(GenConfig(n=8, seed=0))
        with pytest.raises(ValueError):
            gen_background(g, 1, 0)


class TestGenAmoClaims:
    @pytest.mark.parametrize("seed", range(12))
    def test_claims_are_edges_and_the_count_is_positive(self, seed):
        g = random_chordal(GenConfig(n=20 + seed, p_range=(0.1, 0.2), seed=seed))
        k = gen_amo_claims(g, 8, seed)
        assert len(k) == min(8, g.num_edges)
        assert all(g.has_edge(u, v) for u, v in k)
        assert count_session(uccg_instance(g, k)).count > 0
        assert gen_amo_claims(g, 8, seed) == k

    def test_all_edges_orient_one_amo(self):
        g = random_chordal(GenConfig(n=9, seed=3))
        k = gen_amo_claims(g, g.num_edges + 5, 0)
        assert len(k) == g.num_edges
        assert count_session(uccg_instance(g, k)).count == 1

    def test_no_claims(self):
        g = random_chordal(GenConfig(n=6, seed=1))
        assert len(gen_amo_claims(g, 0, 0)) == 0
        with pytest.raises(ValueError, match="nonnegative"):
            gen_amo_claims(g, -1, 0)


class TestGrowBackground:
    def grown_pair(self, n, k, seed):
        g = random_chordal(GenConfig(n=n, seed=seed))
        base = gen_background(g, k, seed + 1)
        bigger, grew = grow_background(g, base, seed + 2)
        return g, base, bigger, grew

    @pytest.mark.parametrize("seed", range(15))
    def test_superset_within_budget(self, seed):
        g, base, bigger, grew = self.grown_pair(60, 4, seed)
        assert set(base) <= set(bigger)
        assert len(bigger) <= 2 * len(base)
        if grew:
            assert len(bigger) > len(base)
        else:
            assert bigger == base

    @pytest.mark.parametrize("seed", range(15))
    def test_parameter_never_moves(self, seed):
        g, base, bigger, _ = self.grown_pair(60, 5, seed)
        i1 = MecInstance(uccg_instance(g).graph, base)
        i2 = MecInstance(uccg_instance(g).graph, bigger)
        assert max_clique_knowledge(i1) == max_clique_knowledge(i2)

    @pytest.mark.parametrize("seed", range(10))
    def test_new_claims_only_touch_covered_vertices(self, seed):
        g, base, bigger, _ = self.grown_pair(50, 4, seed)
        extra = set(bigger) - set(base)
        for c in maximal_cliques(g):
            base_cov = covered_in(c, base)
            cs = set(c)
            for u, v in extra:
                if u in cs and v in cs:
                    assert u in base_cov and v in base_cov, (seed, c, (u, v))

    def test_deterministic(self):
        g = random_chordal(GenConfig(n=40, seed=9))
        base = gen_background(g, 4, 3)
        assert grow_background(g, base, 5) == grow_background(g, base, 5)

    def test_no_candidates_returns_base(self):
        # a triangle with every edge claimed leaves nothing to add
        g = random_chordal(GenConfig(n=3, p_range=(0.9, 0.95), seed=1))
        assert g.num_edges == 3
        base = BackgroundKnowledge([(0, 1), (0, 2), (1, 2)])
        out, grew = grow_background(g, base, 0)
        assert grew is False
        assert out == base

    def test_rejects_cyclic_base(self):
        g = random_chordal(GenConfig(n=3, p_range=(0.9, 0.95), seed=1))
        with pytest.raises(ValueError):
            grow_background(g, BackgroundKnowledge([(0, 1), (1, 2), (2, 0)]), 0)


class TestPinnedBytes:
    """Generated instances stay byte for byte what they were: the benchmark
    tables and any instance file written by ``amocount gen`` depend on it."""

    @pytest.mark.parametrize(
        "n,k,seed,claims,digest",
        [
            (60, 4, 1, 27, "aad72bd6e4264321b4a2b22c92fc6d752cd5eea06d668379f00872dac1b1d195"),
            (60, 4, 2, 14, "5ec2f910df7beb595591295b99f568813af7c1c11f6e1139768f41a183942e37"),
            (40, 3, 5, 9, "f88a537c71765a86fc6e2635de285f67d948c23ee0c9d37fdf5fced3b6e714fa"),
            (30, None, 3, 0, "3d30623700518a22e5c2d106d8f562cbc8b366b7d6bb13f5fb6dba38fd90fc2d"),
        ],
    )
    def test_bench_instances(self, n, k, seed, claims, digest):
        instance, _, _ = make_instance(n, k, seed)
        assert len(instance.knowledge) == claims
        text = serialize_instance(InstanceDocument(default_labels(n), instance))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "n,seed,count,claim_seed,digest",
        [
            (40, 7, 8, 3, "b665b617e651be09f202a9c0ac1771a80f73dc4d2c225e4b56563340bcc38af5"),
            (25, 11, 30, 4, "6d92cd66009e7b0f48236d80cb7c45f6a83b356d10c8f97a05d3c069328dac84"),
        ],
    )
    def test_amo_claims(self, n, seed, count, claim_seed, digest):
        claims = gen_amo_claims(random_chordal(GenConfig(n=n, seed=seed)), count, claim_seed)
        assert len(claims) == count
        assert hashlib.sha256(repr(sorted(claims)).encode()).hexdigest() == digest
