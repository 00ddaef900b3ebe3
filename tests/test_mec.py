"""Instance model: knowledge sets, mixed graphs, validation, the parameter."""

import random

import pytest

from amocount.counting import count_session
from amocount.generators import GenConfig, random_chordal
from amocount.graphs import (
    UndirectedGraph,
    _claim_masks,
    _mask_components,
    _mcs_cliques,
)
from amocount.mec import (
    BackgroundKnowledge,
    InvalidInstanceError,
    MecInstance,
    PartiallyDirectedGraph,
    chordal_components,
    max_clique_knowledge,
    validate,
)
from amocount.oracle import is_chordal_by_elimination
from conftest import random_chain_instance

# two undirected components {0,1} and {3,4,5}, all directed edges into 2
TWO_COMPONENT = PartiallyDirectedGraph(
    6, [(0, 1), (3, 4), (3, 5), (4, 5)], [(0, 2), (1, 2), (3, 2)]
)
# a single seven-vertex chordal component
SEVEN = PartiallyDirectedGraph(
    7,
    [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
     (2, 4), (2, 5), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6)],
    [],
)


class TestBackgroundKnowledge:
    def test_basic_set_behavior(self):
        k = BackgroundKnowledge([(0, 1), (2, 3), (0, 1)])
        assert len(k) == 2
        assert (0, 1) in k and (1, 0) not in k
        assert k == BackgroundKnowledge([(2, 3), (0, 1)])
        assert hash(k) == hash(BackgroundKnowledge([(2, 3), (0, 1)]))

    def test_empty(self):
        assert not BackgroundKnowledge.empty()
        assert len(BackgroundKnowledge.empty()) == 0

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            BackgroundKnowledge([(1, 1)])

    def test_union(self):
        k = BackgroundKnowledge([(0, 1)]).union([(1, 2)])
        assert k == BackgroundKnowledge([(0, 1), (1, 2)])

    def test_both_directions_allowed_as_a_set(self):
        # contradictory claims are representable; counting yields zero later
        k = BackgroundKnowledge([(0, 1), (1, 0)])
        assert len(k) == 2

    @pytest.mark.parametrize(
        "pair",
        [(0.9, 2.5), (0, 2.0), ("3", "4"), (1, "2"), (None, 1)],
        ids=["floats", "integral-float", "strings", "one-string", "none"],
    )
    def test_rejects_non_integer_endpoints(self, pair):
        # int() would have turned (0.9, 2.5) into the claim 0->2
        with pytest.raises(ValueError, match="needs integer endpoints"):
            BackgroundKnowledge([(0, 1), pair])

    def test_accepts_numpy_integers(self):
        np = pytest.importorskip("numpy")
        k = BackgroundKnowledge([(np.int64(3), np.int64(4)), (np.int32(0), 1)])
        assert k == BackgroundKnowledge([(3, 4), (0, 1)])
        assert all(type(x) is int for pair in k for x in pair)


class TestPartiallyDirectedGraph:
    def test_parts_and_skeleton(self):
        g = TWO_COMPONENT
        assert g.undirected == frozenset({(0, 1), (3, 4), (3, 5), (4, 5)})
        assert g.directed == frozenset({(0, 2), (1, 2), (3, 2)})
        assert (0, 2) in g.skeleton_pairs and (2, 3) in g.skeleton_pairs

    def test_undirected_part(self):
        und = TWO_COMPONENT.undirected_part()
        assert und.edges() == [(0, 1), (3, 4), (3, 5), (4, 5)]
        assert und.n == 6

    @pytest.mark.parametrize(
        "und,dire",
        [
            ([(0, 0)], []),
            ([(0, 9)], []),
            ([], [(1, 1)]),
            ([(0, 1)], [(0, 1)]),   # same pair in both parts
            ([(0, 1)], [(1, 0)]),
            ([], [(0, 1), (1, 0)]),  # two-cycle
        ],
    )
    def test_rejects_malformed(self, und, dire):
        with pytest.raises(ValueError):
            PartiallyDirectedGraph(3, und, dire)

    def test_undirected_pairs_normalized(self):
        g = PartiallyDirectedGraph(3, [(2, 0)], [])
        assert g.undirected == frozenset({(0, 2)})

    @pytest.mark.parametrize(
        "und,dire,message",
        [
            ([(2, 5)], [], "edge (2, 5) out of range for 3 vertices"),
            ([(5, 2)], [], "edge (5, 2) out of range for 3 vertices"),
            ([(-1, 2)], [], "edge (-1, 2) out of range for 3 vertices"),
            ([], [(4, 1)], "edge (4, 1) out of range for 3 vertices"),
            ([(3, 3)], [], "edge (3, 3) out of range for 3 vertices"),
            ([(1, 1)], [], "self-loop at vertex 1"),
            ([], [(2, 2)], "self-loop at vertex 2"),
            ([], [(1, 0), (2, 1), (0, 1)], "edge 0,1 directed both ways"),
            ([(0, 1)], [(1, 0)], "edge 1,0 is both directed and undirected"),
            ([(1, 0)], [(0, 1)], "edge 0,1 is both directed and undirected"),
            # undirected edges are checked first, then directed edges in
            # input order, then the overlap of the two parts
            ([(0, 1), (0, 0)], [(5, 1)], "self-loop at vertex 0"),
            ([(0, 1)], [(0, 1), (2, 1), (1, 2)], "edge 1,2 directed both ways"),
            ([(0, 1)], [(0, 1), (2, 2)], "self-loop at vertex 2"),
            # an endpoint that is not an integer is named with its edge
            ([(0.0, 1)], [], "edge (0.0, 1) needs integer endpoints"),
            ([(0, 1), (1, 2.5)], [], "edge (1, 2.5) needs integer endpoints"),
            ([("0", 1)], [], "edge ('0', 1) needs integer endpoints"),
            ([(0, 1)], [(1.0, 2)], "edge (1.0, 2) needs integer endpoints"),
            ([], [(2, "1")], "edge (2, '1') needs integer endpoints"),
            ([], [(None, 1)], "edge (None, 1) needs integer endpoints"),
        ],
    )
    def test_error_messages(self, und, dire, message):
        with pytest.raises(ValueError) as e:
            PartiallyDirectedGraph(3, und, dire)
        assert str(e.value) == message

    def test_a_row_that_is_not_a_pair_keeps_its_type_error(self):
        for und, dire in (([5], []), ([(0, 1)], [7])):
            with pytest.raises(TypeError, match="cannot unpack"):
                PartiallyDirectedGraph(3, und, dire)

    def test_accepts_numpy_integers(self):
        np = pytest.importorskip("numpy")
        g = PartiallyDirectedGraph(
            3, [(np.int64(0), np.int64(1))], [(np.int32(2), 1), (np.int64(2), np.int8(0))]
        )
        assert g == PartiallyDirectedGraph(3, [(0, 1)], [(2, 1), (2, 0)])

    def test_repr_counts_edges_off_the_masks(self, monkeypatch):
        graphs = [
            TWO_COMPONENT,
            SEVEN,
            PartiallyDirectedGraph(0),
            PartiallyDirectedGraph(3, [], [(0, 2)]),
        ]
        expected = [
            "PartiallyDirectedGraph(n=6, undirected=4, directed=3)",
            "PartiallyDirectedGraph(n=7, undirected=13, directed=0)",
            "PartiallyDirectedGraph(n=0, undirected=0, directed=0)",
            "PartiallyDirectedGraph(n=3, undirected=0, directed=1)",
        ]
        assert [repr(g) for g in graphs] == expected

        def forbidden(self):
            raise AssertionError("repr built the undirected pair set")

        monkeypatch.setattr(PartiallyDirectedGraph, "undirected", property(forbidden))
        assert [repr(g) for g in graphs] == expected

    def test_negative_vertex_count(self):
        with pytest.raises(ValueError) as e:
            PartiallyDirectedGraph(-1)
        assert str(e.value) == "vertex count must be nonnegative"

    def test_undirected_masks(self):
        masks = TWO_COMPONENT.undirected_masks()
        assert masks == (0b10, 0b1, 0, 0b110000, 0b101000, 0b11000)
        assert TWO_COMPONENT.undirected_masks() is masks
        assert PartiallyDirectedGraph(0).undirected_masks() == ()


class TestChordalComponents:
    def test_splits_with_labels(self):
        comps = chordal_components(TWO_COMPONENT)
        assert [c.vertex_set for c in comps] == [
            frozenset({0, 1}),
            frozenset({2}),
            frozenset({3, 4, 5}),
        ]
        assert comps[2].edges() == [(3, 4), (3, 5), (4, 5)]


class TestValidate:
    def test_clean_instances(self):
        assert validate(MecInstance(TWO_COMPONENT, BackgroundKnowledge.empty())) == []
        k = BackgroundKnowledge([(0, 1), (4, 3), (5, 3)])
        assert validate(MecInstance(TWO_COMPONENT, k)) == []

    def test_knowledge_off_skeleton(self):
        k = BackgroundKnowledge([(0, 5)])
        out = validate(MecInstance(TWO_COMPONENT, k))
        assert len(out) == 1 and "not an edge" in out[0]

    def test_knowledge_on_directed_edge_is_allowed(self):
        k = BackgroundKnowledge([(0, 2)])
        assert validate(MecInstance(TWO_COMPONENT, k)) == []

    def test_non_chordal_component(self):
        g = PartiallyDirectedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [])
        out = validate(MecInstance(g, BackgroundKnowledge.empty()))
        assert any("chordal" in v for v in out)

    def test_two_non_chordal_components_beside_a_chordal_one(self):
        # the paw {0, 6, 9, 12} is chordal; {1, 3, 5, 7, 10} is the 4-cycle
        # 3-7-10-5 with 1 hanging off 3, and {2, 4, 8, 11, 13, 14} is the
        # 5-cycle 4-8-11-13-14 with the triangle 2-4-8 on it
        g = PartiallyDirectedGraph(
            15,
            [(0, 6), (0, 9), (6, 9), (9, 12),
             (1, 3), (3, 7), (7, 10), (10, 5), (5, 3),
             (2, 4), (2, 8), (4, 8), (8, 11), (11, 13), (13, 14), (14, 4)],
            [],
        )
        inst = MecInstance(g, BackgroundKnowledge.empty())
        assert validate(inst) == reference_validate(inst) == [
            "undirected component containing vertex 1 is not chordal",
            "undirected component containing vertex 2 is not chordal",
        ]

    def test_directed_edge_inside_component(self):
        g = PartiallyDirectedGraph(3, [(0, 1), (1, 2)], [(0, 2)])
        out = validate(MecInstance(g, BackgroundKnowledge.empty()))
        assert any("component" in v for v in out)

    def test_cycle_between_components(self):
        # 0-1 and 2-3 undirected, directed edges 0->2 and 3->1
        g = PartiallyDirectedGraph(4, [(0, 1), (2, 3)], [(0, 2), (3, 1)])
        out = validate(MecInstance(g, BackgroundKnowledge.empty()))
        assert any("cycle" in v for v in out)

    def test_directed_only_dag_is_valid(self):
        g = PartiallyDirectedGraph(3, [], [(0, 1), (1, 2), (0, 2)])
        assert validate(MecInstance(g, BackgroundKnowledge.empty())) == []

    def test_every_fault_in_order(self):
        # components {0, 9}, the 4-cycle {1, 3, 5, 7}, the 5-cycle
        # {2, 4, 6, 8, 10} and {11}; 1->5 lies inside the 4-cycle and
        # 0->2->11->9 closes a cycle through three components
        g = PartiallyDirectedGraph(
            12,
            [(9, 0), (7, 1), (3, 5), (1, 3), (5, 7),
             (10, 2), (8, 10), (6, 8), (4, 6), (2, 4)],
            [(11, 9), (2, 11), (1, 5), (0, 2)],
        )
        k = BackgroundKnowledge([(9, 0), (0, 12), (2, 0), (0, 5)])
        assert validate(MecInstance(g, k)) == [
            "knowledge claim 0->5 is not an edge of the graph",
            "knowledge claim 0->12 references an unknown vertex",
            "undirected component containing vertex 1 is not chordal",
            "undirected component containing vertex 2 is not chordal",
            "directed edge 1->5 joins two vertices of one undirected component"
            " (semi-directed cycle)",
            "directed edges form a cycle across undirected components",
        ]


def reference_validate(instance):
    """``validate`` written with plain sets: a breadth-first search for the
    components and simplicial-vertex elimination for chordality."""
    g = instance.graph
    n = g.n
    skeleton = {frozenset(e) for e in g.undirected | g.directed}
    msgs = []
    for u, v in sorted(instance.knowledge):
        if not (0 <= u < n and 0 <= v < n):
            msgs.append(f"knowledge claim {u}->{v} references an unknown vertex")
        elif frozenset((u, v)) not in skeleton:
            msgs.append(f"knowledge claim {u}->{v} is not an edge of the graph")
    adj = {v: set() for v in range(n)}
    for u, v in g.undirected:
        adj[u].add(v)
        adj[v].add(u)
    comp_of, comps = {}, []
    for start in range(n):
        if start in comp_of:
            continue
        comp_of[start] = len(comps)
        comp, queue = {start}, [start]
        while queue:
            for w in adj[queue.pop()]:
                if w not in comp:
                    comp.add(w)
                    comp_of[w] = len(comps)
                    queue.append(w)
        comps.append(comp)
    for comp in comps:
        edges = [(u, v) for u in comp for v in adj[u] if u < v]
        if not is_chordal_by_elimination(UndirectedGraph.from_vertices(comp, edges)):
            msgs.append(f"undirected component containing vertex {min(comp)} is not chordal")
    quotient = set()
    for u, v in sorted(g.directed):
        if comp_of[u] == comp_of[v]:
            msgs.append(
                f"directed edge {u}->{v} joins two vertices of one undirected"
                " component (semi-directed cycle)"
            )
        else:
            quotient.add((comp_of[u], comp_of[v]))
    alive = set(range(len(comps)))
    while True:
        sources = {c for c in alive if not any(b == c and a in alive for a, b in quotient)}
        if not sources:
            break
        alive -= sources
    if alive:
        msgs.append("directed edges form a cycle across undirected components")
    return msgs


def faulty_instance(seed):
    """A seeded instance of two to four blocks, each a random chordal graph,
    some with a chordless 4- or 5-cycle attached, under a random relabelling;
    random directed edges inside and between the blocks, and claims on
    undirected edges, directed edges, non-edges and unknown vertices."""
    rng = random.Random(seed)
    und, blocks, n = [], [], 0
    for b in range(rng.randint(2, 4)):
        size = rng.randint(1, 6)
        g = random_chordal(GenConfig(n=size, p_range=(0.3, 0.8), seed=seed * 7 + b))
        block = list(range(n, n + size))
        und += [(u + n, v + n) for u, v in g.edges()]
        n += size
        if rng.random() < 0.2:
            cycle = [rng.choice(block)] + list(range(n, n + rng.choice((3, 4))))
            block += cycle[1:]
            n += len(cycle) - 1
            und += list(zip(cycle, cycle[1:] + cycle[:1]))
        blocks.append(block)
    relabel = list(range(n))
    rng.shuffle(relabel)
    und = {tuple(sorted((relabel[u], relabel[v]))) for u, v in und}
    blocks = [[relabel[v] for v in block] for block in blocks]
    dire = set()
    for _ in range(rng.randint(0, 2 * len(blocks))):
        if rng.random() < 0.15:
            block = rng.choice(blocks)
            if len(block) < 2:
                continue
            u, v = rng.sample(block, 2)
        else:
            a, b = rng.sample(blocks, 2)
            u, v = rng.choice(a), rng.choice(b)
        if tuple(sorted((u, v))) not in und and (v, u) not in dire:
            dire.add((u, v))
    edges = sorted(und) + sorted(dire)
    claims = set()
    for _ in range(rng.randint(0, 5)):
        kind = rng.random()
        if kind < 0.8:
            u, v = rng.choice(edges)
            claims.add((u, v) if rng.random() < 0.5 else (v, u))
        elif kind < 0.9:
            claims.add(tuple(rng.sample(range(n), 2)))
        else:
            claims.add((rng.randrange(n), n + rng.randrange(3)))
    return MecInstance(PartiallyDirectedGraph(n, und, dire), BackgroundKnowledge(claims))


class TestValidateAgainstReference:
    SEEDS = range(60)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_the_set_reference(self, seed):
        inst = faulty_instance(seed)
        assert validate(inst) == reference_validate(inst)

    def test_the_instances_cover_every_fault(self):
        seen = set()
        for seed in self.SEEDS:
            msgs = reference_validate(faulty_instance(seed))
            seen.add("clean" if not msgs else None)
            for m in msgs:
                seen.add(next(
                    word for word in ("unknown", "not an edge", "chordal", "joins", "cycle")
                    if word in m
                ))
        assert seen >= {"clean", "unknown", "not an edge", "chordal", "joins", "cycle"}


def per_component_trees(graph):
    """``_mcs_cliques`` run on each component of the undirected part."""
    nbr = graph.undirected_masks()
    comps = _mask_components(nbr, (1 << graph.n) - 1)
    return tuple((comp, *_mcs_cliques(nbr, comp)[:2]) for comp in comps)


class TestUndirectedTrees:
    """One search over the whole undirected part, cut at the parentless
    cliques, gives what a search per component gives."""

    @pytest.mark.parametrize("seed", range(30))
    def test_chain_instances(self, seed):
        graph = random_chain_instance(seed).graph
        assert len(graph.undirected_forest()[0]) >= 2
        assert graph.undirected_forest()[0] == per_component_trees(graph)

    # these include chordless cycles (test_the_instances_cover_every_fault)
    @pytest.mark.parametrize("seed", TestValidateAgainstReference.SEEDS)
    def test_validate_reference_instances(self, seed):
        graph = faulty_instance(seed).graph
        assert graph.undirected_forest()[0] == per_component_trees(graph)

    @pytest.mark.parametrize(
        "graph",
        [
            PartiallyDirectedGraph(0),
            PartiallyDirectedGraph(1),
            PartiallyDirectedGraph(5),
            PartiallyDirectedGraph(3, [], [(0, 1), (1, 2)]),
            TWO_COMPONENT,
            SEVEN,
        ],
    )
    def test_small_graphs(self, graph):
        trees = graph.undirected_forest()[0]
        assert trees == per_component_trees(graph)
        assert graph.undirected_forest()[0] is trees
        assert [mask for mask, _, _ in trees] == [
            sum(1 << v for v in c.vertex_set) for c in chordal_components(graph)
        ]

    def test_lone_vertices_are_one_clique_each(self):
        assert PartiallyDirectedGraph(0).undirected_forest()[0] == ()
        assert PartiallyDirectedGraph(3).undirected_forest()[0] == (
            (0b1, [0b1], [None]),
            (0b10, [0b10], [None]),
            (0b100, [0b100], [None]),
        )


class TestMaxCliqueKnowledge:
    """The ledger of four knowledge sets over the two example graphs."""

    @pytest.mark.parametrize(
        "graph,claims,expected",
        [
            (TWO_COMPONENT, [(0, 1), (4, 3), (5, 3)], 3),
            (TWO_COMPONENT, [(0, 1), (4, 3)], 2),
            (SEVEN, [(0, 1), (2, 5)], 2),
            (SEVEN, [(0, 1), (1, 2), (0, 2), (2, 5), (3, 5), (5, 6)], 3),
        ],
    )
    def test_ledger(self, graph, claims, expected):
        inst = MecInstance(graph, BackgroundKnowledge(claims))
        assert max_clique_knowledge(inst) == expected

    def test_empty_knowledge_is_zero(self):
        assert max_clique_knowledge(MecInstance(SEVEN, BackgroundKnowledge.empty())) == 0

    def test_claims_with_an_end_outside_the_graph_are_ignored(self):
        for bad in [(0, 7), (7, 0), (-1, 2), (2, -1), (9, 12)]:
            k = BackgroundKnowledge([(2, 4), (3, 5), bad])
            assert max_clique_knowledge(MecInstance(SEVEN, k)) == 4, bad
            assert max_clique_knowledge(MecInstance(SEVEN, BackgroundKnowledge([bad]))) == 0

    def test_coverage_accumulates_per_clique(self):
        # (2,4) and (3,5) both sit inside the middle clique {2,3,4,5}
        k = BackgroundKnowledge([(2, 4), (3, 5)])
        assert max_clique_knowledge(MecInstance(SEVEN, k)) == 4
        # (2,3) and (4,6) never share a maximal clique
        k = BackgroundKnowledge([(2, 3), (4, 6)])
        assert max_clique_knowledge(MecInstance(SEVEN, k)) == 2


def reference_claim_masks(labels, pairs):
    """``_claim_masks`` by sets: the positions of each vertex's claim
    sources, and of every claim target, over the sorted ``labels``."""
    pos = {v: i for i, v in enumerate(sorted(labels))}
    kept = [(pos[u], pos[v]) for u, v in pairs if u in pos and v in pos]
    preds = [sum(1 << a for a, b in kept if b == i) for i in range(len(pos))]
    return preds, sum(1 << b for b in {b for _, b in kept})


class TestClaimMasks:
    """The one builder of the engine's claim form, against sets."""

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_sets_on_sparse_and_negative_labels(self, seed):
        rng = random.Random(7_700 + seed)
        labels = rng.sample(range(-40, 60), rng.randint(1, 14))
        g = UndirectedGraph.from_vertices(labels)
        # ends drawn a little wider than the labels, so some fall outside
        ends = labels + rng.sample(range(-60, 80), 6)
        pairs = [tuple(rng.sample(ends, 2)) for _ in range(rng.randint(0, 20))]
        knowledge = BackgroundKnowledge((u, v) for u, v in pairs if u != v)
        bit = g.bit
        assert _claim_masks(bit, knowledge.pairs) == reference_claim_masks(labels, knowledge.pairs)

    def test_drops_claims_with_an_end_outside(self):
        bit = {-5: 1, 3: 2, 10: 4}
        assert _claim_masks(bit, [(-5, 10), (10, 3), (3, 4), (7, -5)]) == ([0, 4, 1], 6)
        assert _claim_masks(bit, []) == ([0, 0, 0], 0)


def count(graph, claims):
    return count_session(MecInstance(graph, BackgroundKnowledge(claims))).count


class TestCountAmo:
    """Whole-instance counts of acyclic moral orientations (AMOs)."""

    def test_two_component_counts(self):
        assert count(TWO_COMPONENT, []) == 12
        assert count(TWO_COMPONENT, [(0, 1), (4, 3), (5, 3)]) == 2
        assert count(TWO_COMPONENT, [(0, 1), (4, 3)]) == 3

    def test_seven_vertex_counts(self):
        assert count(SEVEN, []) == 104
        assert count(SEVEN, [(0, 1), (2, 5)]) == 32
        assert count(SEVEN, [(0, 1), (1, 2), (0, 2), (2, 5), (3, 5), (5, 6)]) == 8

    def test_reversal_of_directed_edge_gives_zero(self):
        assert count(TWO_COMPONENT, [(2, 0)]) == 0

    def test_redundant_claim_on_directed_edge(self):
        assert count(TWO_COMPONENT, [(0, 2)]) == 12

    def test_contradictory_claims_give_zero(self):
        assert count(SEVEN, [(0, 1), (1, 0)]) == 0

    def test_invalid_instance_raises(self):
        g = PartiallyDirectedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [])
        with pytest.raises(InvalidInstanceError) as e:
            count(g, [])
        assert e.value.violations
