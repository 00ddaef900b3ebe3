"""The counting core: permutation counts, the LBFS sweep, the clique-tree
group table, the recursion."""

import gc
import itertools
import math
import os
import random
import subprocess
import sys

import pytest

import amocount.counting as counting_module
import amocount.graphs as graphs_module
import amocount.mec as mec_module
import amocount.oracle as oracle_module
from amocount.counting import (
    DOWN_SET_BUDGET,
    CountingSession,
    PermutationCapError,
    count_session,
    count_uccg,
    _group_table,
)
from amocount.generators import GenConfig, gen_amo_claims, random_chordal
from amocount.graphs import (
    RootedCliqueTree,
    UndirectedGraph,
    _claim_masks,
    _iter_bits,
    _lbfs,
    _mask_components,
    _mcs_cliques,
    clique_tree,
    is_chordal,
    lbfs_order,
    maximal_cliques,
)
from amocount.instancefile import (
    InstanceDocument,
    default_labels,
    parse_instance_text,
    serialize_instance,
)
from amocount.mec import (
    BackgroundKnowledge,
    MecInstance,
    PartiallyDirectedGraph,
    chordal_components,
)
from amocount.oracle import (
    _is_lbfs_ordering,
    _reroot,
    amos_represented_by,
    enumerate_amos,
    forbidden_prefixes,
    lbfs_background,
    phi,
    phi_bruteforce,
    psi,
    psi_bruteforce,
    union_graph,
)
from conftest import (
    random_chain_instance,
    random_claims,
    random_uccg,
    uccg_instance,
    within_recursion_bound,
)

PAW = UndirectedGraph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
SEVEN = UndirectedGraph(
    7,
    [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
     (2, 4), (2, 5), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6)],
)


def complete(n):
    import itertools

    return UndirectedGraph(n, itertools.combinations(range(n), 2))


class TestPrefixChain:
    """``phi`` takes its forbidden prefixes as any sequence of sets, and
    checks that they are nonempty and strictly nested."""

    def test_valid_chain(self):
        host = frozenset({1, 2, 3, 4})
        expected = phi_bruteforce(host, [{1}, {1, 2}, {1, 2, 3}], ())
        for chain in [{1}, {1, 2}, {1, 2, 3}], ((1,), (1, 2), (1, 2, 3)), ({1}, [2, 1], {3, 2, 1}):
            assert phi(host, chain, ()) == expected

    def test_rejects_non_nested(self):
        host = frozenset({1, 2, 3, 4})
        with pytest.raises(ValueError, match="not strictly nested"):
            phi(host, [{1}, {2, 3}], ())
        with pytest.raises(ValueError, match="not strictly nested"):
            phi(host, [{1, 2}, {1, 2}], ())

    def test_rejects_empty_prefix(self):
        with pytest.raises(ValueError, match="must not be empty"):
            phi(frozenset({1, 2, 3}), [set(), {1}], ())


class TestPsi:
    def test_no_claims(self):
        assert psi(frozenset(), BackgroundKnowledge.empty()) == 1
        assert psi(frozenset({0, 1, 2, 3}), BackgroundKnowledge.empty()) == 24

    def test_total_order(self):
        assert psi(frozenset({0, 1, 2}), BackgroundKnowledge([(0, 1), (1, 2)])) == 1

    def test_two_sources(self):
        assert psi(frozenset({0, 1, 2}), BackgroundKnowledge([(0, 2), (1, 2)])) == 2

    def test_contradiction_is_zero(self):
        assert psi(frozenset({0, 1}), BackgroundKnowledge([(0, 1), (1, 0)])) == 0

    def test_cap(self):
        # the only cap is the down-set budget, which claim-free vertices
        # never reach, however many there are
        assert psi(frozenset(range(21)), BackgroundKnowledge.empty()) == math.factorial(21)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_enumeration(self, seed):
        rng = random.Random(40_000 + seed)
        m = rng.randint(0, 6)
        members = frozenset(rng.sample(range(10), m))
        pairs = set()
        for u in members:
            for v in members:
                if u != v and rng.random() < 0.25:
                    pairs.add((u, v))
        k = BackgroundKnowledge(pairs)
        assert psi(members, k) == psi_bruteforce(members, k)


def disjoint_chains(lengths):
    """Claims v -> v+1 along consecutive runs of the given lengths from 0."""
    pairs, v = [], 0
    for length in lengths:
        pairs += [(v + i, v + i + 1) for i in range(length - 1)]
        v += length
    return pairs


class TestPsiSplit:
    """``psi`` counts each claim-graph component on its own and interleaves
    the parts by a multinomial."""

    @pytest.mark.parametrize("seed", range(60))
    def test_multi_component_dags_match_enumeration(self, seed):
        rng = random.Random(90_000 + seed)
        m = rng.randint(4, 8)
        parts = rng.randint(2, min(4, m // 2))
        members = rng.sample(range(20), m)
        # every part gets at least two vertices and a spanning set of claims
        cuts = sorted(rng.sample(range(1, m // 2), parts - 1))
        sizes = [2 * (b - a) for a, b in zip([0] + cuts, cuts + [m // 2])]
        sizes[-1] += m % 2
        pairs, v = set(), 0
        for size in sizes:
            part = members[v : v + size]
            v += size
            for i in range(1, size):
                pairs.add((part[rng.randrange(i)], part[i]))
            for i in range(size):
                for j in range(i + 1, size):
                    if rng.random() < 0.3:
                        pairs.add((part[i], part[j]))
        k = BackgroundKnowledge(pairs)
        assert psi(frozenset(members), k) == psi_bruteforce(members, k) > 0

    @pytest.mark.parametrize("where", range(3))
    def test_a_cycle_in_one_component_zeroes_the_count(self, where):
        parts = [[(0, 1), (1, 2)], [(3, 4), (3, 5)], [(6, 7), (7, 8)]]
        parts[where] = [(3 * where, 3 * where + 1), (3 * where + 1, 3 * where + 2),
                        (3 * where + 2, 3 * where)]
        k = BackgroundKnowledge(p for part in parts for p in part)
        assert psi(frozenset(range(9)), k) == 0 == psi_bruteforce(range(9), k)

    @pytest.mark.parametrize("lengths", [[40], [3, 5, 7, 11, 14], [2] * 20, [1, 9, 30], [13, 13, 14]])
    def test_disjoint_chains_give_the_multinomial(self, lengths):
        assert sum(lengths) == 40
        k = BackgroundKnowledge(disjoint_chains(lengths))
        expected = math.factorial(40)
        for length in lengths:
            expected //= math.factorial(length)
        assert psi(frozenset(range(40)), k) == expected

    def test_seven_chains_of_three_count_past_twenty_vertices(self):
        # 21 claim-touched vertices in one clique: tree parts count at any size
        k = BackgroundKnowledge(disjoint_chains([3] * 7))
        expected = math.factorial(21) // math.factorial(3) ** 7
        assert psi(frozenset(range(21)), k) == expected
        assert count_session(uccg_instance(complete(21), k)).count == expected


def random_polytree(rng, vertices):
    """Claims along a random spanning tree of ``vertices``, each turned either
    way at random."""
    vs = list(vertices)
    rng.shuffle(vs)
    pairs = []
    for i in range(1, len(vs)):
        u, v = vs[rng.randrange(i)], vs[i]
        pairs.append((u, v) if rng.random() < 0.5 else (v, u))
    return pairs


def euler_zigzag(m):
    """Alternating permutations of m elements (Seidel's triangle), the
    orders of a zigzag claim set of m vertices."""
    row = [1]
    for _ in range(m):
        nxt = [0]
        for x in reversed(row):
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


class TestPsiTrees:
    """Claim sets whose parts are all trees are counted by Atkinson's subtree
    dynamic program, never by the down-set one; any other claim set has all
    its parts counted by the down-set one."""

    @pytest.fixture
    def no_down_sets(self, monkeypatch):
        def refuse(pred, part):
            raise AssertionError("a forest claim set reached the down-set DP")

        monkeypatch.setattr(counting_module, "_down_set_count", refuse)

    @pytest.mark.parametrize("seed", range(60))
    def test_small_forests_match_enumeration(self, seed, no_down_sets):
        # one to four trees over up to eight vertices
        rng = random.Random(600_000 + seed)
        m = rng.randint(1, 8)
        members = rng.sample(range(30), m)
        cuts = sorted(rng.sample(range(1, m), rng.randint(0, min(3, m - 1))))
        pairs = []
        for a, b in zip([0] + cuts, cuts + [m]):
            pairs += random_polytree(rng, members[a:b])
        k = BackgroundKnowledge(pairs)
        assert psi(frozenset(members), k) == psi_bruteforce(members, k) > 0

    @pytest.mark.parametrize("seed", range(40))
    def test_polytrees_match_the_down_set_count(self, seed):
        rng = random.Random(610_000 + seed)
        m = rng.randint(2, 16)
        pred = [0] * m
        for u, v in random_polytree(rng, range(m)):
            pred[v] |= 1 << u
        expected = counting_module._down_set_count(pred, (1 << m) - 1)
        assert counting_module._linear_extension_count(tuple(range(m)), pred) == expected

    def test_out_star_of_twenty(self, no_down_sets):
        k = BackgroundKnowledge((0, v) for v in range(1, 20))
        assert psi(frozenset(range(20)), k) == math.factorial(19)
        in_star = BackgroundKnowledge((v, 19) for v in range(19))
        assert psi(frozenset(range(20)), in_star) == math.factorial(19)

    def test_zigzag_of_forty_gives_the_euler_number(self, no_down_sets):
        # claims 0 -> 1 <- 2 -> 3 <- ... -> 39
        k = BackgroundKnowledge((i, i + 1) if i % 2 == 0 else (i + 1, i) for i in range(39))
        assert [euler_zigzag(m) for m in range(1, 7)] == [1, 1, 2, 5, 16, 61]
        assert psi(frozenset(range(40)), k) == euler_zigzag(40)

    def test_a_transitive_triangle_is_not_a_tree(self):
        k = BackgroundKnowledge([(0, 1), (1, 2), (0, 2)])
        assert psi(frozenset(range(3)), k) == 1 == psi_bruteforce(range(3), k)
        k = BackgroundKnowledge([(0, 1), (0, 2), (1, 2), (3, 4)])
        assert psi(frozenset(range(5)), k) == 10 == psi_bruteforce(range(5), k)

    def test_a_tree_part_next_to_a_cyclic_part(self):
        tree = [(0, 1), (2, 1), (2, 3)]
        cycle = [(4, 5), (5, 6), (6, 4)]
        k = BackgroundKnowledge(tree + cycle)
        assert psi(frozenset(range(7)), k) == 0 == psi_bruteforce(range(7), k)
        k = BackgroundKnowledge(tree + [(4, 5), (5, 6), (4, 6)])
        assert psi(frozenset(range(7)), k) == psi_bruteforce(range(7), k) == 35 * 5

    def test_the_down_set_budget_fails_loudly(self, monkeypatch):
        # 0 and 1 both precede 2 and 3: a four-cycle of links, not a tree,
        # whose layers hold 2, 1, 2 and 1 down-sets.  No layer passes a
        # budget of 3, but their sum does.
        k = BackgroundKnowledge([(0, 2), (1, 2), (0, 3), (1, 3)])
        assert psi(frozenset(range(4)), k) == 4
        monkeypatch.setattr(counting_module, "DOWN_SET_BUDGET", 6)
        assert psi(frozenset(range(4)), k) == 4
        monkeypatch.setattr(counting_module, "DOWN_SET_BUDGET", 3)
        with pytest.raises(PermutationCapError) as e:
            psi(frozenset(range(4)), k)
        assert (e.value.size, e.value.budget) == (4, 3)

    def test_the_budget_admits_every_part_of_twenty_vertices(self):
        # a part of m vertices has at most 2^m down-sets, the empty one unbuilt
        assert DOWN_SET_BUDGET >= 2**20


class TestPhi:
    def test_five_vertex_chain_of_two_claims(self):
        out = phi(frozenset({1, 2, 3, 4, 5}), (), BackgroundKnowledge([(1, 2), (2, 3)]))
        assert out == 20

    def test_single_prefix(self):
        assert phi(frozenset({0, 1, 2}), [{0}], BackgroundKnowledge.empty()) == 4
        assert phi(frozenset({0, 1, 2}), [{0}], BackgroundKnowledge([(1, 0)])) == 3

    def test_nested_prefixes(self):
        assert phi(frozenset({0, 1, 2, 3}), [{0}, {0, 1}], BackgroundKnowledge.empty()) == 16
        assert (
            phi(frozenset({0, 1, 2, 3}), [{0}, {0, 1}], BackgroundKnowledge([(2, 1)])) == 9
        )

    def test_no_prefix_no_claims_is_factorial(self):
        assert phi(frozenset(range(6)), (), BackgroundKnowledge.empty()) == 720

    def test_rejects_chain_not_inside_host(self):
        with pytest.raises(ValueError):
            phi(frozenset({0, 1}), [{0, 1}], BackgroundKnowledge.empty())
        with pytest.raises(ValueError):
            phi(frozenset({0, 1}), [{5}], BackgroundKnowledge.empty())

    def test_rejects_claims_outside_host(self):
        with pytest.raises(ValueError):
            phi(frozenset({0, 1}), (), BackgroundKnowledge([(0, 9)]))

    def test_cap_applies_to_claim_vertices_only(self):
        # a large host is fine while the claims touch few vertices
        host = frozenset(range(40))
        assert phi(host, (), BackgroundKnowledge([(0, 1)])) == math.factorial(40) // 2

    @pytest.mark.parametrize("seed", range(120))
    def test_matches_permutation_filtering(self, seed):
        rng = random.Random(70_000 + seed)
        m = rng.randint(1, 6)
        host = frozenset(rng.sample(range(9), m))
        members = sorted(host)
        chain = []
        cur = set()
        for v in rng.sample(members, rng.randint(0, m - 1)):
            cur = cur | {v}
            if rng.random() < 0.6 and len(cur) < m:
                chain.append(frozenset(cur))
        pairs = set()
        for u in host:
            for v in host:
                if u != v and rng.random() < 0.2:
                    pairs.add((u, v))
        k = BackgroundKnowledge(pairs)
        assert phi(host, chain, k) == phi_bruteforce(host, chain, k), (host, chain, pairs)


@pytest.mark.parametrize(
    "call",
    [
        lambda k: psi({0, 1}, k),
        lambda k: phi({0, 1}, [], k),
        lambda k: count_uccg(UndirectedGraph(2, [(0, 1)]), k),
    ],
    ids=["psi", "phi", "count_uccg"],
)
def test_raw_claim_lists_reject_self_loops(call):
    # A raw claim list goes through BackgroundKnowledge, so it is checked as
    # the BackgroundKnowledge form is.
    for claims in ([(0, 0)], [(0, 1), (1, 1)]):
        with pytest.raises(ValueError, match="self-loop"):
            call(claims)
    assert call([(0, 1), (0, 1)]) == call(BackgroundKnowledge([(0, 1)])) == 1


class TestLbfsBackground:
    def test_flag_and_components_on_pendant(self):
        res = lbfs_background(PAW, (0, 1, 2), BackgroundKnowledge([(2, 3)]))
        assert res.flag is True
        assert res.components == (frozenset({3}),)
        res = lbfs_background(PAW, (0, 1, 2), BackgroundKnowledge([(3, 2)]))
        assert res.flag is False
        assert res.components == (frozenset({3}),)

    def test_interior_claims_do_not_drop_the_flag(self):
        res = lbfs_background(PAW, (0, 1, 2), BackgroundKnowledge([(0, 1), (1, 2)]))
        assert res.flag is True

    def test_components_of_middle_clique(self):
        res = lbfs_background(SEVEN, (2, 3, 4, 5), BackgroundKnowledge.empty())
        assert set(res.components) == {frozenset({0, 1}), frozenset({6})}

    def test_rejects_non_maximal_clique(self):
        with pytest.raises(ValueError):
            lbfs_background(SEVEN, (2, 3), BackgroundKnowledge.empty())

    def test_rejects_claims_off_the_graph(self):
        with pytest.raises(ValueError):
            lbfs_background(PAW, (0, 1, 2), BackgroundKnowledge([(0, 3)]))

    @pytest.mark.parametrize("seed", range(60))
    def test_flag_matches_union_graph(self, seed):
        """The flag answers: does the union of clique-led orientations obey K?"""
        g = random_uccg(seed, 3, 7)
        rng = random.Random(50_000 + seed)
        k = random_claims(g, rng, "oriented")
        for c in maximal_cliques(g):
            reps = amos_represented_by(g, c)
            res = lbfs_background(g, c, k)
            if not reps:
                continue
            union = union_graph(reps)
            expected = all((v, u) not in union.directed for u, v in k)
            assert res.flag == expected, (seed, c, sorted(k))
            left = frozenset(g.vertex_set) - frozenset(c)
            comp_union = frozenset().union(*res.components) if res.components else frozenset()
            assert comp_union == left


def random_tree(rng, n):
    """Edges of a random tree on 0..n-1: a recursive tree, or a deep one
    whose vertices hang off one of the three before them, relabelled at
    random."""
    deep = rng.random() < 0.5
    label = list(range(n))
    rng.shuffle(label)
    edges = []
    for v in range(1, n):
        u = rng.randint(max(0, v - 3), v - 1) if deep else rng.randrange(v)
        edges.append((label[u], label[v]))
    return edges


def caterpillar(rng, spine):
    """Edges of a path of ``spine`` vertices with 0-3 legs on each."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    n = spine
    for i in range(spine):
        for _ in range(rng.randint(0, 3)):
            edges.append((i, n))
            n += 1
    return UndirectedGraph(n, edges)


def sparse_chordal(rng, n):
    """Each new vertex joins a random earlier vertex, and sometimes that
    vertex's own first neighbour too, closing a triangle; chordal, since
    every vertex joins a clique."""
    first = [None]
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v))
        if first[u] is not None and rng.random() < 0.4:
            edges.append((first[u], v))
        first.append(u)
    return UndirectedGraph(n, edges)


def edge_claims(g, rng, most):
    """Up to ``most`` edges of ``g``, each oriented at random."""
    picked = rng.sample(g.edges(), rng.randint(0, min(most, g.num_edges)))
    return BackgroundKnowledge((u, v) if rng.random() < 0.5 else (v, u) for u, v in picked)


def check_sweeps(g, knowledge):
    """Sweep the whole of ``g`` from 0 and from every maximal clique, with
    the claims and with none, and check each sweep against the LBFS oracle:
    the order is an LBFS ordering that starts with the seed's positions,
    lowest first, and the components split the vertices outside the seed
    into connected parts."""
    bit, nbr = g.bit, g.nbr
    whole = (1 << g.n) - 1
    claim_preds, _ = _claim_masks(bit, knowledge.pairs)
    for seed in [0] + _mcs_cliques(nbr, whole)[0]:
        for preds in (claim_preds, None):
            flag, comps, order = _lbfs(nbr, whole, seed, preds, True)
            assert sorted(order) == list(range(g.n))
            assert _is_lbfs_ordering(g, [g.vertices[v] for v in order]), (seed, order)
            assert order[: seed.bit_count()] == list(_iter_bits(seed))
            covered = 0
            for h in comps:
                assert h and not covered & h, (seed, comps)
                assert _mask_components(nbr, h) == [h], (seed, h)
                covered |= h
            assert covered == whole & ~seed
            assert flag or preds is not None


class TestLbfsSweep:
    """The knowledge-aware LBFS is one partition-refinement sweep; its order
    and components must be an LBFS's from any seed clique."""

    @pytest.mark.parametrize("seed", range(40))
    def test_small_chordal_graphs(self, seed):
        g = random_uccg(seed, 3, 12)
        check_sweeps(g, random_claims(g, random.Random(98_000 + seed), "oriented"))

    @pytest.mark.parametrize("seed", range(12))
    def test_chordal_graphs_with_30_to_80_vertices(self, seed):
        rng = random.Random(99_000 + seed)
        n = rng.randint(30, 80)
        scale = math.log(n) / n
        g = random_chordal(GenConfig(n=n, p_range=(1.5 * scale, 3 * scale), seed=seed))
        check_sweeps(g, edge_claims(g, rng, 8))


def check_clique_tree(nbr, sub, tree):
    """``tree`` is a clique tree of the connected chordal mask ``sub``: the
    cliques ``_mcs_cliques`` finds, parents before their children, and the
    cliques holding each vertex forming one subtree."""
    cliques, parents = tree
    assert sorted(cliques) == sorted(_mcs_cliques(nbr, sub)[0]), sub
    assert parents[0] is None
    assert all(parents[j] is not None and parents[j] < j for j in range(1, len(parents))), sub
    for v in _iter_bits(sub):
        holding = {j for j, c in enumerate(cliques) if c >> v & 1}
        assert len([j for j in holding if parents[j] not in holding]) == 1, (sub, v)


def table_matches_full_sweep(g, knowledge, rng):
    """Build the group table of every component of ``g``, its clique tree
    rooted at a random clique, and check every pick against the full
    ``_lbfs`` sweep: the same flag and, when it holds, the same subproblems
    of two or more vertices, each handed down with a clique tree.  Returns
    the number of accepted picks that leave a subproblem of two or more
    vertices."""
    bit, nbr = g.bit, g.nbr
    preds, targets = _claim_masks(bit, knowledge.pairs)
    recursing = 0
    for sub in _mask_components(nbr, (1 << g.n) - 1):
        cliques, parents, _ = _mcs_cliques(nbr, sub)
        cliques, parents = _reroot(cliques, parents, rng.randrange(len(cliques)))
        sides, _, walked = _group_table(cliques, parents, preds, targets)
        assert len(sides) == len(cliques)
        assert walked >= sum(map(len, sides))  # each link's pass reaches a clique
        for i, clique in enumerate(cliques):
            flag, comps, _ = _lbfs(nbr, sub, clique, preds, True)
            assert (None not in sides[i]) == flag, (sub, i)
            if flag:
                expected = sorted(h for h in comps if h & (h - 1))
                got = [(h, tree) for entry in sides[i] for h, tree in entry]
                assert sorted(h for h, _ in got) == expected, (sub, i)
                for h, tree in got:
                    check_clique_tree(nbr, h, tree)
                recursing += bool(expected)
    return recursing


def recorded_recursion(monkeypatch):
    """Record each ``CountingSession._count`` call as ``(caller, sub)``, the
    caller being the subproblem whose pick made the call (None at the top
    level)."""
    inner = CountingSession._count
    stack, calls = [None], []

    def counted(self, sub, tree):
        calls.append((stack[-1], sub))
        stack.append(sub)
        try:
            return inner(self, sub, tree)
        finally:
            stack.pop()

    monkeypatch.setattr(CountingSession, "_count", counted)
    return calls


def walk_claims(g, rng):
    """No claims, random edge claims and claims read off one acyclic moral
    orientation."""
    return (
        BackgroundKnowledge(),
        edge_claims(g, rng, 8),
        gen_amo_claims(g, rng.randint(1, 8), rng.randrange(10**6)),
    )


class TestCliqueWalk:
    """Each pick's flag and subproblems come from the group table of its
    subproblem's clique tree; they must be the full LBFS sweep's, and every
    subproblem of two or more vertices comes with a clique tree of its own."""

    @pytest.mark.parametrize("seed", range(40))
    def test_small_chordal_graphs(self, seed):
        rng = random.Random(100_000 + seed)
        g = random_uccg(seed, 3, 12)
        for k in walk_claims(g, rng):
            table_matches_full_sweep(g, k, rng)

    @pytest.mark.parametrize("seed", range(16))
    def test_sparse_chordal_graphs(self, seed):
        rng = random.Random(101_000 + seed)
        g = sparse_chordal(rng, rng.randint(5, 60))
        for k in walk_claims(g, rng):
            table_matches_full_sweep(g, k, rng)

    @pytest.mark.parametrize("seed", range(16))
    def test_trees_and_caterpillars(self, seed):
        rng = random.Random(102_000 + seed)
        if seed % 2:
            g = caterpillar(rng, rng.randint(3, 20))
        else:
            n = rng.randint(5, 60)
            g = UndirectedGraph(n, random_tree(rng, n))
        for k in walk_claims(g, rng):
            # every subproblem of a tree is a lone vertex
            assert table_matches_full_sweep(g, k, rng) == 0

    @pytest.mark.parametrize("seed", range(12))
    def test_chordal_graphs_with_30_to_80_vertices(self, seed):
        rng = random.Random(103_000 + seed)
        n = rng.randint(30, 80)
        scale = math.log(n) / n
        g = random_chordal(GenConfig(n=n, p_range=(1.5 * scale, 3 * scale), seed=seed))
        none, edges, amo = walk_claims(g, rng)
        table_matches_full_sweep(g, none, rng)
        table_matches_full_sweep(g, edges, rng)
        # claims that hold in one orientation leave picks that recurse
        assert table_matches_full_sweep(g, amo, rng) > 0

    @pytest.mark.parametrize("seed", range(16))
    def test_each_miss_recurses_into_its_accepted_picks_only(self, seed, monkeypatch):
        rng = random.Random(104_000 + seed)
        g = random_uccg(seed, 4, 14) if seed % 2 else sparse_chordal(rng, rng.randint(10, 40))
        bit, nbr = g.bit, g.nbr
        for k in walk_claims(g, rng):
            calls = recorded_recursion(monkeypatch)
            count_session(uccg_instance(g, k))
            preds, _ = _claim_masks(bit, k.pairs)
            children = {}
            for caller, sub in calls:
                children.setdefault(caller, []).append(sub)
            assert sorted(children.pop(None)) == sorted(_mask_components(nbr, (1 << g.n) - 1))
            for caller, subs in children.items():
                expected = []
                for clique in _mcs_cliques(nbr, caller)[0]:
                    flag, comps, _ = _lbfs(nbr, caller, clique, preds, True)
                    if flag:
                        expected += [h for h in comps if h & (h - 1)]
                assert sorted(subs) == sorted(expected), (seed, caller)


def tree_distances(edges, n, source):
    """Distance from ``source`` to each of the n vertices of a tree."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = [None] * n
    dist[source] = 0
    queue = [source]
    for u in queue:
        for w in adj[u]:
            if dist[w] is None:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def sources_honouring(edges, n, pairs):
    """The vertices r of a tree that lie nearer to u than to v for every
    claim u->v: the sources of the tree's AMOs that honour every claim."""
    dist = {v: tree_distances(edges, n, v) for claim in pairs for v in claim}
    return sum(all(dist[u][r] < dist[v][r] for u, v in pairs) for r in range(n))


class TestIdentitiesAtScale:
    """Counts that hold at any size, checked far beyond the oracle's reach.
    An AMO of a tree is fixed by its source, so it honours a claim u->v
    exactly when u is nearer the source than v."""

    @pytest.mark.parametrize("n", [500, 2000, 8000])
    def test_a_path_counts_its_vertices(self, n):
        path = PartiallyDirectedGraph(n, [(i, i + 1) for i in range(n - 1)])
        assert count_session(MecInstance(path, BackgroundKnowledge())).count == n

    @pytest.mark.parametrize("seed", range(12))
    def test_a_tree_counts_the_sources_that_honour_every_claim(self, seed):
        rng = random.Random(98_000 + seed)
        n = rng.randint(200, 400)
        edges = random_tree(rng, n)
        k = edge_claims(UndirectedGraph(n, edges), rng, 4)
        res = count_session(MecInstance(PartiallyDirectedGraph(n, edges), k))
        assert res.count == sources_honouring(edges, n, k.pairs)

    @pytest.mark.parametrize(
        "claims, expected",
        [([(0, 1), (2999, 2998)], 0), ([(0, 1), (2998, 2999)], 1), ([(1, 0), (2998, 2999)], 2998)],
    )
    def test_a_long_path_counts_the_sources_that_honour_its_end_claims(self, claims, expected):
        # every pick's side toward a claim is one table entry, so the picks
        # of a 3000-vertex path do not each walk the path
        edges = [(i, i + 1) for i in range(2999)]
        assert sources_honouring(edges, 3000, claims) == expected
        k = BackgroundKnowledge(claims)
        assert count_session(MecInstance(PartiallyDirectedGraph(3000, edges), k)).count == expected

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 50, 400, 1000])
    def test_a_windmill_counts_2m_plus_1_times_2_to_the_m(self, m):
        # F_m is m triangles sharing vertex 0.  An AMO has source 0 and
        # orients each far edge freely, or has its source in one triangle,
        # 2m choices, with 0 before or after the triangle's third vertex.
        edges = []
        for t in range(1, m + 1):
            edges += [(0, 2 * t - 1), (0, 2 * t), (2 * t - 1, 2 * t)]
        inst = MecInstance(PartiallyDirectedGraph(2 * m + 1, edges), BackgroundKnowledge())
        expected = (2 * m + 1) * 2**m
        if m <= 4:
            assert len(enumerate_amos(inst.graph)) == expected
        assert count_session(inst).count == expected

    def test_a_forest_counts_the_product_of_its_tree_sizes(self):
        rng = random.Random(99_000)
        sizes = [1, 2, 3, 1, 57, 120, 300]
        label = list(range(sum(sizes)))
        rng.shuffle(label)  # interleave the trees' labels
        edges, offset = [], 0
        for size in sizes:
            edges += [(label[offset + u], label[offset + v]) for u, v in random_tree(rng, size)]
            offset += size
        forest = PartiallyDirectedGraph(offset, edges)
        res = count_session(MecInstance(forest, BackgroundKnowledge()))
        assert res.count == math.prod(sizes)
        assert len(res.stats.components) == len(sizes)

    @pytest.mark.parametrize("seed", range(12))
    def test_claims_of_a_whole_amo_count_one(self, seed):
        # Orienting every edge along an LBFS order gives an AMO, and claims
        # that fix every edge leave that AMO alone.
        n = random.Random(97_000 + seed).randint(50, 200)
        p_range = (0.02, 0.06) if seed % 2 else GenConfig.p_range
        g = random_chordal(GenConfig(n=n, p_range=p_range, seed=seed))
        pos = {v: i for i, v in enumerate(lbfs_order(g))}
        k = BackgroundKnowledge((u, v) if pos[u] < pos[v] else (v, u) for u, v in g.edges())
        res = count_session(MecInstance(PartiallyDirectedGraph(n, g.edges()), k))
        assert res.count == 1

    @pytest.mark.parametrize("n", [13, 20, 40])
    @pytest.mark.parametrize("m", [0, 5, 12])
    def test_a_claim_chain_in_a_complete_graph_divides_n_factorial(self, n, m):
        # An AMO of K_n is a vertex order; a chain u1->...->um fixes the
        # relative order of its m vertices, one of m! equally many.
        chain = random.Random(96_000 + 100 * n + m).sample(range(n), m)
        k = BackgroundKnowledge(zip(chain, chain[1:]))
        g = UndirectedGraph(n, itertools.combinations(range(n), 2))
        assert count_uccg(g, k) == math.factorial(n) // math.factorial(m)

    @pytest.mark.parametrize("seed", range(8))
    def test_edge_split_and_monotonicity_at_100_to_300_vertices(self, seed):
        # count(K) = count(K + u->v) + count(K + v->u) for an edge u-v outside
        # K, and a claim added along an AMO keeps the count positive and never
        # raises it.  Claims read off an LBFS order keep that order's AMO, so
        # every count is positive and the permutation counts run.
        rng = random.Random(95_000 + seed)
        n = rng.randint(100, 300)
        scale = math.log(n) / n
        g = random_chordal(GenConfig(n=n, p_range=(1.5 * scale, 3 * scale), seed=seed))
        graph = PartiallyDirectedGraph(n, g.edges())
        pos = {v: i for i, v in enumerate(lbfs_order(g))}

        def along(u, v):
            return (u, v) if pos[u] < pos[v] else (v, u)

        def count(k):
            return count_session(MecInstance(graph, BackgroundKnowledge(k))).count

        edges = g.edges()
        rng.shuffle(edges)
        claims = {along(u, v) for u, v in edges[:8]}
        res = count_session(MecInstance(graph, BackgroundKnowledge(claims)))
        base = res.count
        assert base > 0 and res.stats.phi_chain_evaluations > 0
        for u, v in edges[8:11]:
            assert base == count(claims | {(u, v)}) + count(claims | {(v, u)}), (u, v)
        cur, prev = set(claims), base
        for u, v in edges[11:15]:
            cur.add(along(u, v))
            now = count(cur)
            assert 0 < now <= prev, (u, v)
            prev = now


class TestForbiddenPrefixes:
    def test_seven_vertex_tree(self):
        t = clique_tree(SEVEN)
        assert forbidden_prefixes(t, (0, 1, 2, 3)) == ()
        assert forbidden_prefixes(t, (2, 3, 4, 5)) == (frozenset({2, 3}),)
        assert forbidden_prefixes(t, (4, 5, 6)) == (frozenset({4, 5}),)

    def test_separator_not_inside_clique_is_skipped(self):
        # star of cliques: separators with the root are not inside the leaves
        g = UndirectedGraph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        t = clique_tree(g)
        assert t.nodes[t.root] == (0, 1, 2)
        assert forbidden_prefixes(t, (2, 3, 4)) == (frozenset({2}),)
        assert forbidden_prefixes(t, (0, 1, 2)) == ()


def connected_submasks(g, seed):
    """The components of the whole graph and of six random vertex subsets."""
    nbr = g.nbr
    rng = random.Random(41_000 + seed)
    subs = set(_mask_components(nbr, (1 << g.n) - 1))
    for _ in range(6):
        picked = sum(1 << i for i in range(g.n) if rng.random() < 0.6)
        subs.update(_mask_components(nbr, picked))
    return nbr, sorted(subs)


class TestMaskCliqueTree:
    """The MCS clique tree over host masks, against the public graph code."""

    @pytest.mark.parametrize("seed", range(48))
    def test_cliques_match_the_induced_graph(self, seed):
        g = random_uccg(seed, 6, 14)
        nbr, subs = connected_submasks(g, seed)
        vs = g.vertices
        for sub in subs:
            cliques, _, _ = _mcs_cliques(nbr, sub)
            got = sorted(tuple(vs[i] for i in _iter_bits(c)) for c in cliques)
            assert got == maximal_cliques(g.induced(vs[i] for i in _iter_bits(sub))), (seed, sub)

    @pytest.mark.parametrize("seed", range(48))
    def test_tree_has_running_intersection(self, seed):
        g = random_uccg(seed, 6, 14)
        nbr, subs = connected_submasks(g, seed)
        for sub in subs:
            cliques, parents, _ = _mcs_cliques(nbr, sub)
            assert parents[0] is None
            assert all(parents[i] < i for i in range(1, len(cliques)))
            for v in _iter_bits(sub):
                holding = {i for i, c in enumerate(cliques) if c >> v & 1}
                tops = [i for i in holding if parents[i] not in holding]
                assert len(tops) == 1, (seed, sub, v)

    @pytest.mark.parametrize("seed", range(48))
    def test_chains_match_forbidden_prefixes_at_every_root(self, seed):
        g = random_uccg(seed, 6, 14)
        nbr, subs = connected_submasks(g, seed)
        vs = g.vertices

        def labels(mask):
            return tuple(vs[i] for i in _iter_bits(mask))

        def edges(cliques, parents):
            return {frozenset((cliques[i], cliques[p])) for i, p in enumerate(parents) if p is not None}

        for sub in subs:
            base_cliques, base, _ = _mcs_cliques(nbr, sub)
            for root in range(len(base_cliques)):
                cliques, parents = _reroot(base_cliques, base, root)
                assert sorted(cliques) == sorted(base_cliques)
                assert cliques[0] == base_cliques[root] and parents[0] is None
                assert all(parents[i] < i for i in range(1, len(parents)))
                assert edges(cliques, parents) == edges(base_cliques, base)
                assert root or (cliques, parents) == (base_cliques, base)
                nodes = tuple(labels(c) for c in cliques)
                tree = RootedCliqueTree(nodes, tuple(parents), 0)
                _, chains, _ = _group_table(cliques, parents, [0] * g.n, 0)
                for i, node in enumerate(nodes):
                    got = tuple(frozenset(labels(r)) for r, _ in chains[i])
                    assert got == forbidden_prefixes(tree, node), (seed, sub, root, i)

    @pytest.mark.parametrize("seed", range(48))
    def test_chains_are_nested_and_carry_their_claim_sources(self, seed):
        # _group_table cuts a parent's chain to a clique by slicing it, which
        # needs each chain strictly nested; _phi_with_ctx reads each entry's
        # sources as the claim sources of R's members that lie outside R
        # random chordal graphs rarely nest two separators, so a threshold
        # graph with its top hub first, whose chains grow one per level, joins
        rng = random.Random(43_000 + seed)
        longest = with_sources = 0
        for g in (random_uccg(seed, 6, 14), threshold(3 + seed % 4, True).graph.undirected_part()):
            nbr, subs = connected_submasks(g, seed)
            preds, targets = _claim_masks(g.bit, random_claims(g, rng, "oriented").pairs)
            for sub in subs:
                base_cliques, base, _ = _mcs_cliques(nbr, sub)
                for root in range(len(base_cliques)):
                    cliques, parents = _reroot(base_cliques, base, root)
                    _, chains, _ = _group_table(cliques, parents, preds, targets)
                    _, plain, _ = _group_table(cliques, parents, [0] * g.n, 0)
                    for i, chain in enumerate(chains):
                        masks = [r for r, _ in chain]
                        assert masks == [r for r, _ in plain[i]], (seed, sub, root, i)
                        for r, bigger in zip(masks, masks[1:] + [cliques[i]]):
                            assert r and r != bigger and not r & ~bigger, (seed, sub, root, i)
                        for r, sources in chain:
                            outside = 0
                            for v in _iter_bits(r):
                                outside |= preds[v]
                            assert sources == outside & ~r, (seed, sub, root, i, r)
                            with_sources += sources != 0
                        longest = max(longest, len(chain))
        assert longest >= 3 and with_sources

    def test_subproblems_build_no_graph(self, monkeypatch):
        g = random_uccg(3, 12, 14)
        k = random_claims(g, random.Random(3), "oriented")
        expected = count_uccg(g, k)
        bit, nbr = g.bit, g.nbr
        session = CountingSession(*_claim_masks(bit, k.pairs))
        full = (1 << g.n) - 1

        def forbidden(*args, **kwargs):
            raise AssertionError("the counting path built a graph or ran an LBFS sweep")

        monkeypatch.setattr(UndirectedGraph, "induced", forbidden)
        monkeypatch.setattr(UndirectedGraph, "_init_from", forbidden)
        monkeypatch.setattr(UndirectedGraph, "_from_masks", forbidden)
        monkeypatch.setattr(counting_module, "clique_tree", forbidden)
        monkeypatch.setattr(counting_module, "_lbfs", forbidden)
        monkeypatch.setattr(graphs_module, "_lbfs", forbidden)
        tree = _mcs_cliques(nbr, full)[:2]
        assert session._count(full, tree) == expected
        assert session.clique_picks > 1

    def test_ingest_and_count_build_no_graph(self, monkeypatch):
        instances = [random_chain_instance(seed) for seed in range(4)]
        assert all(inst.knowledge and inst.graph.directed for inst in instances)
        texts = [
            serialize_instance(InstanceDocument(default_labels(inst.graph.n), inst))
            for inst in instances
        ]
        expected = [count_session(inst).count for inst in instances]
        assert all(expected)

        def forbidden(*args, **kwargs):
            raise AssertionError("reading or counting an instance built a graph or ran an LBFS sweep")

        monkeypatch.setattr(UndirectedGraph, "_init_from", forbidden)
        monkeypatch.setattr(UndirectedGraph, "induced", forbidden)
        monkeypatch.setattr(UndirectedGraph, "_from_masks", forbidden)
        monkeypatch.setattr(PartiallyDirectedGraph, "undirected_part", forbidden)
        monkeypatch.setattr(mec_module, "chordal_components", forbidden)
        monkeypatch.setattr(counting_module, "_lbfs", forbidden)
        monkeypatch.setattr(graphs_module, "_lbfs", forbidden)
        counts = [count_session(parse_instance_text(t).instance).count for t in texts]
        assert counts == expected


class TestCountUccg:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_complete_graph_law(self, n):
        assert count_uccg(complete(n), BackgroundKnowledge.empty()) == math.factorial(n)

    def test_path(self):
        assert count_uccg(UndirectedGraph(3, [(0, 1), (1, 2)]), BackgroundKnowledge.empty()) == 3

    def test_seven_vertex_values(self):
        assert count_uccg(SEVEN, BackgroundKnowledge.empty()) == 104
        assert count_uccg(SEVEN, BackgroundKnowledge([(0, 1), (2, 5)])) == 32
        k = BackgroundKnowledge([(0, 1), (1, 2), (0, 2), (2, 5), (3, 5), (5, 6)])
        assert count_uccg(SEVEN, k) == 8

    def test_single_vertex(self):
        assert count_uccg(UndirectedGraph(1, []), BackgroundKnowledge.empty()) == 1

    def test_claims_must_be_edges(self):
        with pytest.raises(ValueError):
            count_uccg(PAW, BackgroundKnowledge([(0, 3)]))

    def test_rejects_a_chordless_cycle(self):
        c4 = UndirectedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(ValueError):
            count_uccg(c4, BackgroundKnowledge.empty())

    def test_rejects_a_disconnected_graph(self):
        with pytest.raises(ValueError):
            count_uccg(UndirectedGraph(4, [(0, 1), (2, 3)]), BackgroundKnowledge.empty())

    def test_input_checks_build_no_clique_tree(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("count_uccg built a clique tree or a set-based split")

        monkeypatch.setattr(counting_module, "clique_tree", forbidden)
        monkeypatch.setattr(graphs_module, "clique_tree", forbidden)
        monkeypatch.setattr(oracle_module, "connected_components", forbidden)
        assert count_uccg(SEVEN, BackgroundKnowledge.empty()) == 104
        c4 = UndirectedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        for g in (c4, UndirectedGraph(4, [(0, 1), (2, 3)])):
            with pytest.raises(ValueError):
                count_uccg(g, BackgroundKnowledge.empty())

    def test_root_choice_does_not_matter(self):
        bit, nbr = SEVEN.bit, SEVEN.nbr
        full = (1 << SEVEN.n) - 1
        cliques, parents, _ = _mcs_cliques(nbr, full)
        for i in range(len(cliques)):
            session = CountingSession(*_claim_masks(bit, [(2, 5)]))
            assert session._count(full, _reroot(cliques, parents, i)) == 64

    @pytest.mark.parametrize("seed", range(20))
    def test_labels_need_not_be_dense(self, seed):
        g = random_uccg(seed, 3, 9)
        rng = random.Random(95_000 + seed)
        k = random_claims(g, rng, "oriented")
        labels = [-5, 3, 10**6, -(2**40), 7, 2**70, 11, -1, 123_456_789][: g.n]
        rng.shuffle(labels)
        relabel = dict(zip(g.vertices, labels))
        h = UndirectedGraph.from_vertices(labels, [(relabel[u], relabel[v]) for u, v in g.edges()])
        kh = BackgroundKnowledge((relabel[u], relabel[v]) for u, v in k)
        assert count_uccg(h, kh) == count_uccg(g, k)

    @pytest.mark.parametrize("seed", range(80))
    def test_matches_oracle(self, seed):
        g = random_uccg(seed, 3, 8)
        rng = random.Random(60_000 + seed)
        mode = ("empty", "oriented", "oriented", "contradictory")[seed % 4]
        k = random_claims(g, rng, mode)
        expected = len(enumerate_amos(uccg_instance(g).graph, k))
        assert count_uccg(g, k) == expected, (seed, mode)


class TestCountSession:
    @pytest.mark.parametrize(
        "n, edges",
        [
            (2000, [(i, i + 1) for i in range(1999)]),
            (500, [(0, v) for v in range(1, 500)]),
        ],
        ids=["path", "star"],
    )
    def test_claim_free_paths_and_stars_sweep_no_vertex(self, n, edges):
        res = count_session(MecInstance(PartiallyDirectedGraph(n, edges), BackgroundKnowledge()))
        assert res.count == n
        assert res.stats.clique_picks == n - 1
        assert res.stats.walked_cliques == 0

    def test_result_and_stats(self):
        res = count_session(uccg_instance(SEVEN))
        assert res.count == 104
        assert len(res.stats.components) == 1
        comp = res.stats.components[0]
        assert comp.vertices == 7
        assert comp.maximal_cliques == 3
        assert comp.distinct_subproblems <= 2 * 3 - 1
        assert within_recursion_bound(res.stats)
        assert res.stats.clique_picks > 0

    def test_multi_component_product(self):
        g = UndirectedGraph(5, [(0, 1), (2, 3), (3, 4), (2, 4)])
        res = count_session(uccg_instance(g))
        assert res.count == 2 * 6
        assert [c.vertices for c in res.stats.components] == [2, 3]

    @pytest.mark.parametrize("seed", range(24))
    def test_stats_count_every_visited_vertex(self, seed, monkeypatch):
        inst = random_chain_instance(seed) if seed % 2 else uccg_instance(random_uccg(seed, 4, 12))
        inner = counting_module._group_table
        picks, walked = [], []

        def counted(*args):
            sides, chains, reached = inner(*args)
            picks.append(len(sides))
            walked.append(reached)
            return sides, chains, reached

        monkeypatch.setattr(counting_module, "_group_table", counted)
        stats = count_session(inst).stats
        # one table per missed subproblem of two or more cliques
        assert stats.clique_picks == sum(picks)
        assert stats.walked_cliques == sum(walked)

    @pytest.mark.parametrize("seed", range(24))
    def test_component_stats_match_the_components(self, seed):
        inst = random_chain_instance(seed) if seed % 2 else uccg_instance(random_uccg(seed, 4, 12))
        res = count_session(inst)
        assert [(c.vertices, c.maximal_cliques) for c in res.stats.components] == [
            (h.n, len(maximal_cliques(h))) for h in chordal_components(inst.graph)
        ]

    @pytest.mark.parametrize("seed", range(40))
    def test_bound_holds_on_random_instances(self, seed):
        g = random_uccg(seed, 3, 9)
        k = random_claims(g, random.Random(80_000 + seed), "oriented")
        res = count_session(uccg_instance(g, k))
        assert within_recursion_bound(res.stats)
        for comp in res.stats.components:
            assert comp.distinct_subproblems <= 2 * comp.maximal_cliques - 1


def counted_mcs(monkeypatch):
    """Record the mask of every ``_mcs_cliques`` call made through the
    modules that import it."""
    calls = []
    inner = graphs_module._mcs_cliques

    def counted(nbr, sub):
        calls.append(sub)
        return inner(nbr, sub)

    for module in (graphs_module, mec_module):
        monkeypatch.setattr(module, "_mcs_cliques", counted)
    return calls


class TestOneForest:
    """One maximum cardinality search over the undirected part serves
    validation, the component split and every component's top-level tree."""

    def test_cliques_and_lone_vertices_take_one_search(self, monkeypatch):
        # the triangle {0, 1, 2}, the 4-clique {3, 4, 5, 6}, the lone vertex 7
        # and the edge 8-9
        und = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6), (8, 9)]
        k = BackgroundKnowledge([(0, 1), (3, 4), (5, 4), (9, 8)])
        inst = MecInstance(PartiallyDirectedGraph(10, und, []), k)
        expected = len(enumerate_amos(inst.graph, k, cap=10))
        calls = counted_mcs(monkeypatch)
        res = count_session(inst)
        assert res.count == expected == 3 * 8 * 1 * 1
        assert calls == [(1 << 10) - 1]
        assert [c.maximal_cliques for c in res.stats.components] == [1, 1, 1, 1]

    def test_count_uccg_on_a_path_takes_one_search(self, monkeypatch):
        calls = counted_mcs(monkeypatch)
        p5 = UndirectedGraph(5, [(i, i + 1) for i in range(4)])
        assert count_uccg(p5, BackgroundKnowledge([(1, 2)])) == 2  # the source is 0 or 1
        assert calls == [0b11111]

    @pytest.mark.parametrize("seed", range(6))
    def test_graph_queries_share_one_search(self, seed, monkeypatch):
        g = random_uccg(seed, 4, 12)
        full = (1 << g.n) - 1
        calls = counted_mcs(monkeypatch)
        assert is_chordal(g)
        cliques = maximal_cliques(g)
        assert sorted(clique_tree(g).nodes) == cliques
        k = gen_amo_claims(g, 3, seed)
        expected = count_uccg(g, k)
        assert expected >= 1
        assert calls == [full]
        # the search is kept per graph: an equal graph built anew runs its own
        assert count_uccg(UndirectedGraph(g.n, g.edges()), k) == expected
        assert calls == [full, full]

    @pytest.mark.parametrize("seed", range(24))
    def test_one_search_plus_one_per_missed_subproblem(self, seed, monkeypatch):
        inst = random_chain_instance(seed) if seed % 2 else uccg_instance(random_uccg(seed, 4, 12))
        # a missed subproblem takes the clique tree its pick hands down
        calls = counted_mcs(monkeypatch)
        count_session(inst)
        assert calls == [(1 << inst.graph.n) - 1]


def fan(levels):
    """Level 0 is one vertex; each level joins a new vertex to every vertex
    of two disjoint copies of the level below.  Level k has 2**(k+1) - 1
    vertices and largest clique k + 1."""
    n, edges = 1, []
    for _ in range(levels):
        edges = (
            [(0, v) for v in range(1, 2 * n + 1)]
            + [(u + 1, v + 1) for u, v in edges]
            + [(u + n + 1, v + n + 1) for u, v in edges]
        )
        n = 2 * n + 1
    return UndirectedGraph(n, edges)


def measured_depth(monkeypatch):
    """Track the deepest nesting of ``CountingSession._count`` calls."""
    inner = CountingSession._count
    depth = {"now": 0, "max": 0}

    def counted(self, *args):
        depth["now"] += 1
        depth["max"] = max(depth["max"], depth["now"])
        try:
            return inner(self, *args)
        finally:
            depth["now"] -= 1

    monkeypatch.setattr(CountingSession, "_count", counted)
    return depth


class TestRecursionDepth:
    """``_count`` recurses at most w - 1 deep, w the largest clique size."""

    @pytest.mark.parametrize("levels", range(1, 7))
    def test_fan_graphs_reach_the_bound(self, levels, monkeypatch):
        g = fan(levels)
        omega = max(map(len, maximal_cliques(g)))
        assert (g.n, omega) == (2 ** (levels + 1) - 1, levels + 1)
        depth = measured_depth(monkeypatch)
        count_session(uccg_instance(g))
        assert depth["max"] == omega - 1
        depth["max"] = 0
        count_uccg(g, BackgroundKnowledge.empty())
        assert depth["max"] == omega - 1

    @pytest.mark.parametrize("seed", range(30))
    def test_random_instances_stay_within_the_bound(self, seed, monkeypatch):
        inst = random_chain_instance(seed) if seed % 2 else uccg_instance(random_uccg(seed, 4, 14))
        omega = max(map(len, maximal_cliques(inst.graph.undirected_part())))
        depth = measured_depth(monkeypatch)
        count_session(inst)
        # a lone-vertex component is one call deep
        assert depth["max"] <= max(omega - 1, 1)

    def test_counting_leaves_the_recursion_limit_alone(self):
        script = (
            "import sys\n"
            "from amocount.counting import count_session, count_uccg\n"
            "from amocount.graphs import UndirectedGraph\n"
            "from amocount.mec import BackgroundKnowledge, MecInstance, PartiallyDirectedGraph\n"
            "path = [(i, i + 1) for i in range(121)]\n"
            "limits = [sys.getrecursionlimit()]\n"
            "inst = MecInstance(PartiallyDirectedGraph(122, path), BackgroundKnowledge())\n"
            "assert count_session(inst).count == 122\n"
            "limits.append(sys.getrecursionlimit())\n"
            "assert count_uccg(UndirectedGraph(122, path), BackgroundKnowledge()) == 122\n"
            "limits.append(sys.getrecursionlimit())\n"
            "print(*limits)\n"
        )
        src = os.path.dirname(os.path.dirname(counting_module.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        before, after_session, after_uccg = map(int, out.stdout.split())
        assert after_session == before and after_uccg == before


def threshold(k, top_first):
    """The nested threshold graph T_k: from the edge 0-1, level j adds the
    lone vertex 2j, then the hub 2j + 1 joined to every vertex so far.  It
    has 2k + 2 vertices and largest clique k + 2.  ``top_first`` labels
    vertex v as 2k + 1 - v, so the last hub comes first."""
    n = 2 * k + 2
    edges = [(0, 1)] + [(w, h) for h in range(3, n, 2) for w in range(h)]
    if top_first:
        edges = [(n - 1 - u, n - 1 - w) for u, w in edges]
    return MecInstance(PartiallyDirectedGraph(n, edges), BackgroundKnowledge())


class TestPrefixValuesOncePerTree:
    """Each forbidden prefix's own count is made once per clique tree, so a
    pick costs O(w) prefix-free counts, w the largest clique size, and the
    work does not depend on the vertex labels."""

    @pytest.mark.parametrize("k", [40, 80])
    def test_threshold_graph_work_does_not_depend_on_labels(self, k, monkeypatch):
        inner = counting_module._PermCounter.phi_empty
        calls = [0]

        def counted(self, x):
            calls[0] += 1
            return inner(self, x)

        monkeypatch.setattr(counting_module._PermCounter, "phi_empty", counted)
        built = count_session(threshold(k, False))
        calls[0] = 0
        top = count_session(threshold(k, True))
        assert top.count == built.count > 0
        assert top.stats == built.stats
        # O(w) calls a pick, w = k + 2; recounting every prefix of each
        # pick's chain makes about w**2 / 10 here
        assert calls[0] <= 2 * (k + 2) * top.stats.clique_picks


class TestRepeatedCounts:
    """Counting leaves nothing behind and leaves the cyclic collector alone."""

    def test_repeated_counts_keep_the_allocated_blocks_flat(self):
        # With the collector off, only a full pass would empty CPython's
        # tuple free lists.  A psi key grown by resizing is pushed onto its
        # size's list when freed but never taken from it, which added about
        # 3000 blocks over these 500 counts; a key built at its final size
        # is reused.  About 500 remain: this instance has one 20-member key,
        # and CPython 3.11 pushes freed 20-item tuples onto a free list that
        # it never pops, up to its cap of 2000.  A fresh interpreter starts
        # from the same free lists.
        script = (
            "import gc, sys\n"
            "import amocount, workloads\n"
            "from amocount.instancefile import parse_instance_text\n"
            "text = workloads.build(amocount, 'psi_wide', 1)[0][0]\n"
            "inst = parse_instance_text(text).instance\n"
            "for _ in range(20):\n"
            "    amocount.count_session(inst)\n"
            "gc.collect()\n"
            "gc.disable()\n"
            "before = sys.getallocatedblocks()\n"
            "for _ in range(500):\n"
            "    amocount.count_session(inst)\n"
            "print(sys.getallocatedblocks() - before)\n"
        )
        src = os.path.dirname(os.path.dirname(counting_module.__file__))
        bench = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, bench]))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        assert int(out.stdout) < 1000

    def test_counting_never_pauses_the_collector(self, monkeypatch):
        def refuse():
            raise AssertionError("the collector was paused")

        monkeypatch.setattr(gc, "disable", refuse)
        assert count_session(threshold(20, True)).count > 0
        assert count_session(random_chain_instance(5)).count >= 0
