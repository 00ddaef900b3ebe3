"""Release gate: thirteen end-to-end checks with pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per check.  Every expected number here was produced by the brute-force
oracle or is a closed-form quantity; tolerances (time budgets, the slope
bound, the growth ratios) are fixed in this file and nowhere else.  Above
the oracle's reach, counts are checked against identities that hold at any
size.
"""

import itertools
import math
import random
import statistics
import time

from amocount.bench import derived_seed, make_instance, run_bench, time_count
from amocount.counting import CountingSession, count_session, count_uccg
from amocount.generators import GenConfig, gen_background, grow_background, random_chordal
from amocount.graphs import (
    UndirectedGraph,
    _claim_masks,
    _mcs_cliques,
    lbfs_order,
    maximal_cliques,
)
from amocount.mec import (
    BackgroundKnowledge,
    MecInstance,
    PartiallyDirectedGraph,
    max_clique_knowledge,
)
from amocount.oracle import (
    _reroot,
    amos_represented_by,
    enumerate_amos,
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


def report(name, detail):
    print(f"[acceptance] {name}: PASS ({detail})")


def complete(n):
    import itertools

    return UndirectedGraph(n, itertools.combinations(range(n), 2))


def test_engine_matches_bruteforce_oracle_on_500_instances():
    """Exact agreement on small instances of every supported flavor."""
    t0 = time.perf_counter()
    checked = 0
    zeros = 0
    for seed in range(200):
        g = random_uccg(seed, 3, 8)
        mode = ("empty", "oriented", "oriented", "contradictory")[seed % 4]
        k = random_claims(g, random.Random(510_000 + seed), mode)
        inst = uccg_instance(g)
        expected = len(enumerate_amos(inst.graph, k))
        got = count_session(MecInstance(inst.graph, k)).count
        assert got == expected, (seed, mode)
        zeros += got == 0
        checked += 1
    for seed in range(200):
        mode = ("oriented", "oriented", "reversal", "redundant")[seed % 4]
        inst = random_chain_instance(seed, mode)
        # up to twelve vertices, but only a handful of undirected edges
        expected = len(enumerate_amos(inst.graph, inst.knowledge, cap=12))
        got = count_session(inst).count
        assert got == expected, (seed, mode)
        zeros += got == 0
        checked += 1
    for seed in range(100):
        rng = random.Random(520_000 + seed)
        g = random_chordal(GenConfig(n=rng.randint(4, 8), p_range=(0.2, 0.6), seed=seed))
        k = gen_background(g, rng.choice([2, 3]), seed)
        inst = MecInstance(uccg_instance(g).graph, k)
        expected = len(enumerate_amos(inst.graph, k))
        assert count_session(inst).count == expected, seed
        zeros += expected == 0
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked >= 500
    assert elapsed < 120.0
    report(
        "oracle equivalence",
        f"{checked} instances, {zeros} with count 0, {elapsed:.1f}s",
    )


def test_five_vertex_two_claim_permutation_count_is_20():
    out = phi(
        frozenset({1, 2, 3, 4, 5}),
        (),
        BackgroundKnowledge([(1, 2), (2, 3)]),
    )
    assert out == 20
    report("worked permutation count", "phi({1..5}, none, {1>2, 2>3}) = 20")


def test_clique_knowledge_ledger_values():
    two_comp = PartiallyDirectedGraph(
        6, [(0, 1), (3, 4), (3, 5), (4, 5)], [(0, 2), (1, 2), (3, 2)]
    )
    seven = PartiallyDirectedGraph(
        7,
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
         (2, 4), (2, 5), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6)],
        [],
    )
    ledger = [
        (two_comp, [(0, 1), (4, 3), (5, 3)], 3),
        (two_comp, [(0, 1), (4, 3)], 2),
        (seven, [(0, 1), (2, 5)], 2),
        (seven, [(0, 1), (1, 2), (0, 2), (2, 5), (3, 5), (5, 6)], 3),
    ]
    got = [max_clique_knowledge(MecInstance(g, BackgroundKnowledge(k))) for g, k, _ in ledger]
    assert got == [want for _, _, want in ledger] == [3, 2, 2, 3]
    report("parameter ledger", "max clique knowledge = 3, 2, 2, 3 on the four examples")


def test_complete_graphs_count_factorially_up_to_12():
    for n in range(1, 13):
        assert count_uccg(complete(n), BackgroundKnowledge.empty()) == math.factorial(n)
    report("complete-graph law", "K_n counts n! for n = 1..12")


def test_count_is_invariant_under_clique_tree_root():
    trials = 0
    for seed in range(100):
        g = random_uccg(seed, 3, 8)
        k = random_claims(g, random.Random(530_000 + seed), "oriented" if seed % 2 else "empty")
        baseline = count_uccg(g, k)
        bit, nbr = g.bit, g.nbr
        full = (1 << g.n) - 1
        cliques, parents, _ = _mcs_cliques(nbr, full)
        for i in range(len(cliques)):
            session = CountingSession(*_claim_masks(bit, k.pairs))
            assert session._count(full, _reroot(cliques, parents, i)) == baseline, (seed, i)
        trials += 1
    assert trials == 100
    report("root invariance", "100 graphs, every maximal clique as root")


def test_permutation_counts_match_bruteforce_filtering():
    rng = random.Random(540_000)
    for case in range(1000):
        m = rng.randint(1, 7)
        host = frozenset(rng.sample(range(11), m))
        members = sorted(host)
        chain = []
        cur = set()
        for v in rng.sample(members, rng.randint(0, m - 1)):
            cur = cur | {v}
            if rng.random() < 0.5 and len(cur) < m:
                chain.append(frozenset(cur))
        pairs = {
            (u, v)
            for u in host
            for v in host
            if u != v and rng.random() < 0.18
        }
        k = BackgroundKnowledge(pairs)
        assert phi(host, chain, k) == phi_bruteforce(host, chain, k), (case, host, chain)
    for case in range(120):
        m = rng.randint(0, 8)
        members = frozenset(rng.sample(range(12), m))
        pairs = {
            (u, v)
            for u in members
            for v in members
            if u != v and rng.random() < 0.2
        }
        k = BackgroundKnowledge(pairs)
        assert psi(members, k) == psi_bruteforce(members, k), (case, members)
    report("permutation-count suite", "1000 prefix cases and 120 order cases")


def test_consistency_flag_matches_union_of_orientations():
    checked = 0
    seed = 0
    while checked < 200:
        g = random_uccg(9_000 + seed, 3, 7)
        rng = random.Random(550_000 + seed)
        k = random_claims(g, rng, "oriented")
        cliques = maximal_cliques(g)
        c = cliques[rng.randrange(len(cliques))]
        seed += 1
        res = lbfs_background(g, c, k)
        union = union_graph(amos_represented_by(g, c))
        expected = all((v, u) not in union.directed for u, v in k)
        assert res.flag == expected, (seed, c, sorted(k))
        checked += 1
    assert checked == 200
    report("consistency flag", "200 clique-led sweeps against enumerated unions")


def test_scaling_slope_stays_polynomial(tmp_path):
    n_list = [50, 100, 150, 200, 250, 300]
    k_list = [3, 4, 5, 6, 7]
    t0 = time.perf_counter()
    records, aggregates, failures = run_bench(
        n_list, k_list, reps=2, seed=0, out_csv=tmp_path / "sweep.csv"
    )
    elapsed = time.perf_counter() - t0
    assert not failures, failures
    assert len(records) == len(n_list) * len(k_list) * 2
    slopes = {}
    for k in k_list:
        pts = [
            (math.log(a["n"]), math.log(a["mean_time_ms"]))
            for a in aggregates
            if a["k"] == k
        ]
        xbar = statistics.fmean(x for x, _ in pts)
        ybar = statistics.fmean(y for _, y in pts)
        slope = sum((x - xbar) * (y - ybar) for x, y in pts) / sum(
            (x - xbar) ** 2 for x, _ in pts
        )
        slopes[k] = slope
        assert slope <= 4.5, (k, slope)
    assert elapsed < 1800.0
    pretty = ", ".join(f"k={k}: {s:.2f}" for k, s in sorted(slopes.items()))
    report("scaling sweep", f"log-log slopes {pretty}; wall {elapsed:.0f}s")


def test_scaling_slope_stays_polynomial_on_positive_counts():
    """The scaling sweep's draws with every claim turned along one LBFS
    ordering of the graph.  That ordering is an acyclic moral orientation in
    which all the claims hold, so every count is positive and the clique
    permutation counts run; the clique knowledge k is unchanged."""
    n_list = [50, 100, 150, 200, 250, 300]
    k_list = [3, 4, 5, 6, 7]
    t0 = time.perf_counter()
    slopes = {}
    for k in k_list:
        log_n, log_ms = [], []
        for n in n_list:
            times = []
            for rep in range(2):
                drawn, g, _ = make_instance(n, k, derived_seed(0, n, k, rep))
                pos = {v: i for i, v in enumerate(lbfs_order(g))}
                instance = MecInstance(
                    drawn.graph,
                    BackgroundKnowledge(
                        (u, v) if pos[u] < pos[v] else (v, u) for u, v in drawn.knowledge.pairs
                    ),
                )
                assert max_clique_knowledge(instance) == max_clique_knowledge(drawn)
                result, dt = time_count(instance)
                assert result.count > 0, (n, k, rep)
                assert result.stats.phi_chain_evaluations > 0, (n, k, rep)
                times.append(dt)
            log_n.append(math.log(n))
            log_ms.append(math.log(statistics.fmean(times)))
        slopes[k] = statistics.linear_regression(log_n, log_ms).slope
        assert slopes[k] <= 4.5, (k, slopes[k])
    elapsed = time.perf_counter() - t0
    pretty = ", ".join(f"k={k}: {s:.2f}" for k, s in sorted(slopes.items()))
    report("positive-count scaling sweep", f"log-log slopes {pretty}; wall {elapsed:.0f}s")


def test_grown_knowledge_is_no_slower_to_count():
    """Each draw counts its base and grown instances back to back ``pairs``
    times and compares the median ratio of those pairs.  Both sides count 0
    in about a millisecond, so a stall of a fraction of a millisecond would
    break a ratio of single timings; it spoils a few pairs and not the
    median."""
    triples = [
        (140, 4, 0), (140, 5, 8), (140, 6, 0), (140, 6, 8), (180, 4, 5),
        (180, 5, 2), (180, 6, 5), (220, 5, 0), (220, 6, 2), (220, 6, 7),
    ]
    pairs = 101
    worst = 0.0
    for n, k, seed in triples:
        g = random_chordal(GenConfig(n=n, seed=seed))
        k1 = gen_background(g, k, seed + 1)
        k2, grew = grow_background(g, k1, seed + 2)
        assert grew
        assert len(k2) >= 1.5 * len(k1), (n, k, seed, len(k1), len(k2))
        graph = PartiallyDirectedGraph(n, g.edges(), ())
        i1, i2 = MecInstance(graph, k1), MecInstance(graph, k2)
        assert max_clique_knowledge(i1) == max_clique_knowledge(i2)
        time_count(i1)
        time_count(i2)  # warm-up
        ratios = []
        for _ in range(pairs):
            t1 = time_count(i1)[1]
            ratios.append(time_count(i2)[1] / t1)
        ratio = statistics.median(ratios)
        assert ratio <= 1.2, (n, k, seed, ratio)
        worst = max(worst, ratio)
    report(
        "growth comparison",
        f"10 pairs, every grown set >= 1.5x larger, worst median time ratio {worst:.2f}",
    )


def test_grown_knowledge_is_no_slower_to_count_on_positive_counts():
    """The growth comparison's draws with base and grown claims turned along
    one LBFS ordering of the graph, as in the positive-count scaling sweep, so
    every count is positive and the clique permutation counts run.  Each
    draw counts both instances back to back ``pairs`` times and compares the
    median ratio of those pairs: a stall of a fraction of a millisecond, or a
    drift in the host's speed, spoils a few pairs and not the median."""
    triples = [
        (140, 4, 0), (140, 5, 8), (140, 6, 0), (140, 6, 8), (180, 4, 5),
        (180, 5, 2), (180, 6, 5), (220, 5, 0), (220, 6, 2), (220, 6, 7),
    ]
    pairs = 101
    worst = 0.0
    for n, k, seed in triples:
        g = random_chordal(GenConfig(n=n, seed=seed))
        k1 = gen_background(g, k, seed + 1)
        k2, grew = grow_background(g, k1, seed + 2)
        assert grew
        pos = {v: i for i, v in enumerate(lbfs_order(g))}
        graph = PartiallyDirectedGraph(n, g.edges(), ())
        i1, i2 = (
            MecInstance(
                graph,
                BackgroundKnowledge(
                    (u, v) if pos[u] < pos[v] else (v, u) for u, v in kn.pairs
                ),
            )
            for kn in (k1, k2)
        )
        assert len(i2.knowledge) >= 1.5 * len(i1.knowledge), (n, k, seed)
        assert max_clique_knowledge(i1) == max_clique_knowledge(i2)
        for instance in (i1, i2):  # warm-up
            result, _ = time_count(instance)
            assert result.count > 0, (n, k, seed)
            assert result.stats.phi_chain_evaluations > 0, (n, k, seed)
        ratios = []
        for _ in range(pairs):
            t1 = time_count(i1)[1]
            ratios.append(time_count(i2)[1] / t1)
        ratio = statistics.median(ratios)
        assert ratio <= 1.2, (n, k, seed, ratio)
        worst = max(worst, ratio)
    report(
        "positive-count growth comparison",
        f"10 draws, every grown set >= 1.5x larger, worst median time ratio {worst:.2f}",
    )


def test_distinct_subproblems_stay_under_twice_the_cliques():
    checked = 0
    for seed in range(150):
        g = random_uccg(560_000 + seed, 3, 12)
        k = random_claims(g, random.Random(seed), "oriented" if seed % 3 else "empty")
        res = count_session(MecInstance(uccg_instance(g).graph, k))
        assert within_recursion_bound(res.stats), seed
        checked += 1
    for seed in range(100):
        res = count_session(random_chain_instance(3_000 + seed))
        assert within_recursion_bound(res.stats), seed
        checked += 1
    for seed in range(50):
        rng = random.Random(570_000 + seed)
        g = random_chordal(GenConfig(n=rng.randint(10, 40), seed=seed))
        k = gen_background(g, rng.choice([3, 4, 5, 6]), seed)
        res = count_session(MecInstance(uccg_instance(g).graph, k))
        assert within_recursion_bound(res.stats), seed
        for comp in res.stats.components:
            assert comp.distinct_subproblems <= 2 * comp.maximal_cliques - 1
        checked += 1
    report("recursion bound", f"{checked} instances, all within 2*cliques - 1")


def two_clique_claims(seed):
    """Two 20-24-vertex cliques sharing a 3-5-vertex separator, with 18
    claim-touched vertices per clique (three of them in the separator).

    The touched vertices of each clique fall into star-shaped claim parts of
    3-7 vertices, each hub being the part's earliest vertex in one LBFS
    order.  Every claim follows that order, so the orientation along it is a
    witness and the count is positive.  Returns the graph, its two cliques,
    the claims and a function orienting an edge along the order.
    """
    rng = random.Random(580_000 + seed)
    a, b, s = rng.randint(20, 24), rng.randint(20, 24), rng.randint(3, 5)
    ids = list(range(a + b - s))
    rng.shuffle(ids)
    cliques = (ids[:a], ids[a - s :])
    sep = ids[a - s : a]
    g = UndirectedGraph(
        len(ids), {e for c in cliques for e in itertools.combinations(sorted(c), 2)}
    )
    pos = {v: i for i, v in enumerate(lbfs_order(g))}

    def along(u, v):
        return (u, v) if pos[u] < pos[v] else (v, u)

    shared = rng.sample(sep, 3)
    claims = set()
    for c in cliques:
        touched = shared + rng.sample([v for v in c if v not in sep], 15)
        rng.shuffle(touched)
        while touched:
            size = rng.randint(3, 7)
            if len(touched) - size < 3:
                size = len(touched)
            part, touched = touched[:size], touched[size:]
            hub = min(part, key=pos.__getitem__)
            claims |= {(hub, v) for v in part if v != hub}
    return g, cliques, claims, along


def test_psi_heavy_counts_obey_edge_split_and_monotonicity():
    """count(K) = count(K + u->v) + count(K + v->u) for an undirected u-v
    outside K, and adding a claim never raises the count, on 37-45-vertex
    instances whose cliques each carry 18 claim-touched vertices."""
    splits = grown = 0
    for seed in range(6):
        g, cliques, claims, along = two_clique_claims(seed)
        graph = PartiallyDirectedGraph(g.n, g.edges(), ())

        def count(k):
            return count_session(MecInstance(graph, BackgroundKnowledge(k))).count

        base = count(claims)
        assert base > 0, seed
        assert max_clique_knowledge(MecInstance(graph, BackgroundKnowledge(claims))) == 18
        rng = random.Random(seed)
        claimed = {frozenset(p) for p in claims}
        touched = {v for p in claims for v in p}
        for c in cliques:
            free = [
                (u, v)
                for u, v in itertools.combinations(c, 2)
                if frozenset((u, v)) not in claimed
            ]
            # both ends touched; one end touched; neither (at most 20 touched)
            for ends in (2, 1, 0):
                u, v = rng.choice([e for e in free if len(touched & set(e)) == ends])
                assert base == count(claims | {(u, v)}) + count(claims | {(v, u)}), seed
                splits += 1
        cur, prev = set(claims), base
        for u, v in rng.sample(
            [(u, v) for u, v in itertools.combinations(cliques[0], 2)
             if u in touched and v in touched and frozenset((u, v)) not in claimed],
            4,
        ):
            cur.add(along(u, v))
            now = count(cur)
            assert 0 < now <= prev, seed
            prev = now
            grown += 1
    report(
        "identities at scale",
        f"{splits} edge splits and {grown} grown claims on 6 two-clique instances",
    )
