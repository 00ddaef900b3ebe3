"""Correctness checks that run outside the clock.

Each check returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import hashlib
import math
import random

import workloads

# Families whose graph is a tree: with no claims a tree on n vertices has
# exactly n acyclic moral orientations (one per root), so P_n = n.
TREE_FAMILIES = ("path", "caterpillar")


def expected_count(meta):
    """The count a generated instance must have when it is known in closed form.

    Counts multiply over components, so a forest without claims has the
    product of its tree sizes.
    """
    if meta["family"] in TREE_FAMILIES and not meta["claims"]:
        return math.prod(meta["sizes"])
    return None


def path_count(amo, n):
    """P_n = n on a single path."""
    text = workloads.instance_text(amo, n, workloads.path_edges(n), [], {})
    count = amo.count_session(amo.instancefile.parse_instance_text(text).instance).count
    return [] if count == n else [f"P_{n} counted {count}"]


def digest(counts):
    """Short fingerprint of a workload's counts, in pool order."""
    return hashlib.sha256("\n".join(map(str, counts)).encode()).hexdigest()[:16]


def edge_split(amo, doc, seed, tries=20):
    """count(K) = count(K + u->v) + count(K + v->u) for an undirected u-v not in K."""
    instance = doc.instance
    graph, knowledge = instance.graph, instance.knowledge
    edges = sorted(
        (u, v) for u, v in graph.undirected if (u, v) not in knowledge and (v, u) not in knowledge
    )
    random.Random(seed).shuffle(edges)

    def count(pairs):
        extended = amo.MecInstance(graph, amo.BackgroundKnowledge(pairs))
        return amo.count_session(extended).count

    base = count(knowledge)
    for u, v in edges[:tries]:
        try:
            left = count([*knowledge, (u, v)])
            right = count([*knowledge, (v, u)])
        except amo.PermutationCapError:
            continue  # the extra claim pushed one clique over the cap; try another edge
        if base != left + right:
            return [f"edge split on {u}-{v}: {base} != {left} + {right}"]
        return []
    return [f"edge split: no edge among {min(tries, len(edges))} tried stayed under the cap"]


def oracle_agreement(amo, name, seed):
    """Engine counts equal brute-force enumeration on small draws of each family."""
    parse = amo.instancefile.parse_instance_text
    failures = []
    for text, meta in workloads.build(amo, name, seed, workloads.ORACLE_SPECS[name]):
        instance = parse(text).instance
        engine = amo.count_session(instance).count
        oracle = len(amo.enumerate_amos(instance.graph, instance.knowledge))
        if engine != oracle or engine == 0:
            failures.append(f"oracle: {meta} engine={engine} oracle={oracle}")
    return failures
