"""The exact counting engine.

Work happens per chordal component: a rooted clique tree is fixed and every
maximal clique K is picked in turn.  Picking K groups the other cliques of
the tree rooted at K by their separators: each group's cliques minus the
group's separator form one subproblem, and a claim from a subproblem into
its separator rejects K.  A group depends only on the clique-tree link it
starts on, so one table per subproblem, with an entry per directed link,
gives every pick's flag and subproblems, and each subproblem comes with
its clique tree: the group's cliques minus the separator.  Each consistent
clique contributes the number of admissible permutations of K (those
avoiding a chain of forbidden prefixes read off the clique tree) times the
product of recursive counts on its subproblems.  The same pass over the
links that fills the table gives every clique its chain, and each prefix's
own count is made once per tree, so a pick costs one subtraction per
prefix.  Subproblems are vertex masks over one host graph, whose neighbour
masks an instance builds once (``PartiallyDirectedGraph.undirected_masks``),
and no graph is ever built: the instance's one maximum cardinality search
over its whole undirected part gives every component's cliques and clique
tree (``PartiallyDirectedGraph.undirected_forest``), and every subproblem
below takes the tree its pick hands down.  Results are memoized by that
mask, and permutation counts by endpoint set.  All arithmetic is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import (
    UndirectedGraph,
    _claim_endpoints,
    _claim_masks,
    _iter_bits,
    _lbfs,  # unused here: perfbench/tracer.py hooks this module's name
    _mask_components,
    clique_tree,  # unused here: perfbench/tracer.py hooks this module's name
)
from .mec import BackgroundKnowledge, InvalidInstanceError, MecInstance, validate

# Most down-sets ``_down_set_count`` may build, summed over its layers, for
# one claim part.  A part of m vertices has at most 2^m down-sets, one per
# subset of it, so every part of up to 20 vertices counts within it.  It is
# no larger than that, because a refused part builds this many first.
DOWN_SET_BUDGET = 1 << 20


class PermutationCapError(RuntimeError):
    """Raised when counting one claim part's orders needs more than
    ``DOWN_SET_BUDGET`` down-sets.  ``size`` is the part's vertex count and
    ``budget`` the budget it passed."""

    def __init__(self, size: int, budget: int):
        super().__init__(
            f"counting the orders of a claim part of {size} vertices needs more"
            f" than {budget} down-sets"
        )
        self.size = size
        self.budget = budget


def _pairs_of(knowledge) -> frozenset:
    if isinstance(knowledge, BackgroundKnowledge):
        return knowledge.pairs
    return BackgroundKnowledge(() if knowledge is None else knowledge).pairs


def _linear_extension_count(members: tuple, preds) -> int:
    """Permutations of the host positions ``members`` placing u before v for
    every claim u->v among them (``preds[v]`` is the mask of v's claim
    sources).

    The weakly connected parts of the claim graph order independently, so
    the count is m! / (m_1! ... m_r!), the interleavings of the parts, times
    each part's own count.  The members, listed in increasing order, are
    renumbered 0..m-1 by rank first, so parts are m-bit masks.  When the
    claims number m minus the parts, each part's claims form a tree (one
    claim per link, no cycle) and ``_tree_count`` counts it in O(m_i^2); a
    two-vertex part holds one claim and counts 1.  Any other claim set, with
    a cycle, a transitive claim or a pair claimed both ways, has every part
    counted by ``_down_set_count``.
    """
    m = len(members)
    if m < 2:
        return 1
    inside = 0
    for v in members:
        inside |= 1 << v
    pred = [0] * m
    link = [0] * m
    arcs = 0
    for b, v in enumerate(members):
        x = preds[v] & inside
        while x:
            low = x & -x
            a = (inside & (low - 1)).bit_count()  # members below the source
            pred[b] |= 1 << a
            link[a] |= 1 << b
            link[b] |= 1 << a
            arcs += 1
            x ^= low
    parts = _mask_components(link, (1 << m) - 1)
    forest = arcs == m - len(parts)
    count = math.factorial(m)
    for part in parts:
        size = part.bit_count()
        count //= math.factorial(size)
        if not forest:
            count *= _down_set_count(pred, part)
        elif size > 2:
            count *= _tree_count(pred, link, part)
    return count


def _tree_count(pred, link, part: int) -> int:
    """Orders of the positions in ``part``, a mask whose claims (``pred``,
    with ``link`` their undirected form) form a tree, that honour every
    claim (Atkinson 1990, *On computing the number of linear extensions of a
    tree*).

    The tree is rooted at its lowest position and walked breadth first;
    going back over the walk merges each vertex into its parent once all of
    its own children are merged into it.  ``f[v][i]`` counts the orders of
    v's merged subtree that put v at index i.  Merging child c (vector g,
    length b) into v (vector f, length a)
    interleaves the two orders: with t of c's subtree before v, v moves to
    index i + t, in C(i+t, i) * C(a+b-1-i-t, a-1-i) ways, and the claim
    between them keeps the orders of c's subtree with c among its first t
    (claim c->v) or not (claim v->c).  Each merge costs O(a*b), so the part
    costs O(m^2) in all.
    """
    root = (part & -part).bit_length() - 1
    order = [root]
    up = {}
    seen = part & -part
    for v in order:  # grows while it is walked
        x = link[v] & ~seen
        seen |= x
        while x:
            low = x & -x
            c = low.bit_length() - 1
            up[c] = v
            order.append(c)
            x ^= low
    f = {}
    comb = math.comb
    for c in reversed(order):
        if c == root:
            break
        v = up[c]
        g = f.pop(c, None)
        fv = f.get(v, (1,))
        a = len(fv)
        first = pred[v] >> c & 1  # the claim is c->v
        if g is None:  # c is a leaf, b = 1: t is 1 for claim c->v, else 0
            if first:
                f[v] = [0] + [x * (i + 1) for i, x in enumerate(fv)]
            else:
                f[v] = [x * (a - i) for i, x in enumerate(fv)] + [0]
            continue
        acc, before = 0, [0]  # before[t] = g[0] + ... + g[t-1], for claim c->v
        for y in g:
            acc += y
            before.append(acc)
        if not first:  # claim v->c: c among the last b - t instead
            before = [acc - s for s in before]
        if a == 1:  # v alone so far: both binomials are 1
            f[v] = before
            continue
        b = len(g)
        new = [0] * (a + b)
        for i, x in enumerate(fv):
            for t, s in enumerate(before):
                if s:
                    new[i + t] += x * s * comb(i + t, i) * comb(a + b - 1 - i - t, a - 1 - i)
        f[v] = new
    return sum(f[root])


def _down_set_count(pred, part: int) -> int:
    """Orders of the positions in the mask ``part`` that honour every claim
    among them (``pred[v]`` is the mask of v's claim sources), for any claim
    graph.

    A layered dynamic program walks the reachable down-sets, prefixes
    holding every claim source of each of their members: layer t maps each
    down-set of size t to the number of orders that build it, and only the
    current layer is kept.  A claim cycle leaves no down-set of full size,
    so the count is 0.  The down-sets built are summed over the layers, and
    once the sum passes ``DOWN_SET_BUDGET`` while a layer grows,
    ``PermutationCapError`` is raised, so the time and memory spent before a
    refusal are bounded by the budget too.  Each down-set built is a
    distinct nonempty subset of the part, so a part of m vertices builds at
    most 2^m - 1 of them, and no part of 20 or fewer vertices is refused.
    """
    steps = [(1 << i, pred[i]) for i in _iter_bits(part)]
    layer = {0: 1}
    room = DOWN_SET_BUDGET
    for _ in steps:
        grown = {}
        get = grown.get
        for done, ways in layer.items():
            rest = ~done
            for b, p in steps:
                if b & rest and not p & rest:
                    key = done | b
                    grown[key] = get(key, 0) + ways
            if len(grown) > room:
                raise PermutationCapError(len(steps), DOWN_SET_BUDGET)
        if not grown:
            return 0
        room -= len(grown)
        layer = grown
    return layer[part]


class _PermCounter:
    """Shared permutation-counting caches over one host's claim masks
    (``_claim_masks``): ``preds[v]`` is the mask of v's claim sources and
    ``targets`` the mask of claim targets.

    The claims stay fixed for the counter's whole life, and every query
    concerns them restricted to some vertex mask, so cache keys can be
    vertex sets alone.  No endpoint set is refused for its size: claim trees
    count in O(m^2), and only the down-set count of a part that is not a
    tree can fail, once it passes ``DOWN_SET_BUDGET``.
    """

    __slots__ = ("preds", "targets", "_phi0", "_psi", "_factorials", "psi_evals", "phi0_evals")

    def __init__(self, preds, targets: int):
        self.preds = preds
        self.targets = targets
        self._phi0 = {}
        self._psi = {}
        self._factorials = [1]  # i! at index i, grown on demand
        self.psi_evals = 0
        self.phi0_evals = 0

    def psi_value(self, vk: tuple) -> int:
        """Consistent permutations of the claim endpoints ``vk``, a tuple of
        host positions."""
        val = self._psi.get(vk)
        if val is None:
            self.psi_evals += 1
            val = _linear_extension_count(vk, self.preds)
            self._psi[vk] = val
        return val

    def phi_empty(self, x: int) -> int:
        """Consistent permutations of the mask x, no prefix forbidden.

        A mask with no claim target holds no claim, so it counts |x|!, read
        from the counter's factorial table; only masks that hold a target
        are cached and counted in ``phi0_evals``.
        """
        if not x & self.targets:
            try:
                return self._factorials[x.bit_count()]
            except IndexError:  # a mask larger than any before: extend the table
                factorials = self._factorials
                while len(factorials) <= x.bit_count():
                    factorials.append(factorials[-1] * len(factorials))
                return factorials[-1]
        val = self._phi0.get(x)
        if val is None:
            self.phi0_evals += 1
            vk = _claim_endpoints(self.preds, x, self.targets)
            n = x.bit_count()
            # The key is built at its final size: a tuple grown by resizing
            # is never taken from CPython's free lists but is pushed onto
            # them when freed, and only a full collection empties them.
            val = math.perm(n, n - vk.bit_count()) * self.psi_value(tuple([*_iter_bits(vk)]))
            self._phi0[x] = val
        return val


def _phi_with_ctx(ctx: _PermCounter, host: int, chain: tuple, known: dict) -> int:
    """Consistent permutations of the mask ``host`` that start with no prefix
    of ``chain``, under ``ctx``'s claims.

    ``chain`` lists ``(R, sources)`` entries, smallest R first, each R
    strictly inside the next and the last strictly inside ``host``;
    ``sources`` are the claim sources outside R of R's members.  A
    consistent order of ``host`` that starts with R, and with no smaller
    prefix, is an order of R that avoids the prefixes below R, own(R),
    followed by any consistent order of the rest; when a claim enters R from
    the rest there is none.  So the count is ``phi_empty(host)`` minus
    own(R) * ``phi_empty(host & ~R)`` for each R that no claim enters from
    ``host``, and own(R) is the same sum over R and the prefixes below it.
    ``known`` maps prefixes to their own() and is filled here, smallest
    first, for the prefixes it lacks: it may be shared by every chain whose
    prefixes below each R are the same, as they are within one rooted clique
    tree.  ``host`` itself is not stored, since a maximal clique is never a
    prefix of another clique's chain.
    """
    phi_empty = ctx.phi_empty
    for d, (h, _) in enumerate(chain):
        if h not in known:
            val = phi_empty(h)
            for r, sources in chain[:d]:
                if not sources & h:
                    val -= known[r] * phi_empty(h & ~r)
            known[h] = val
    val = phi_empty(host)
    for r, sources in chain:
        if not sources & host:
            val -= known[r] * phi_empty(host & ~r)
    return val


def _group_table(cliques: list, parents: list, preds, targets: int) -> tuple[list, list, int]:
    """What picking each clique leaves behind, from one pass per clique-tree
    side (Wienöbst, Bannach and Liśkiewicz 2021).

    Picking K splits the rest of the clique tree rooted at K into groups.
    A clique C reached from P, with separator s = C & P, joins P's group
    when P is not K and s strictly holds that group's separator S;
    otherwise C starts a new group with S = s.  Each group's cliques minus
    S form one connected subproblem, and K is rejected exactly when a claim
    points from a group's subproblem into its S.

    A group started on the link x -> y has the separator S and the ban (the
    sources of the claims into S) of that link alone, and from y on a link
    c -> z joins it iff S is strictly inside the link's separator.  So the
    group, its rejection and the groups it starts depend on that one link,
    and the table holds one entry per directed link: None when the side
    beyond it rejects, else its subproblems of two or more vertices, each
    with its clique tree ``(cliques minus S in visit order, parents)``.
    An entry reads only the entries of the links its group starts, which
    lie further out, so the links from a parent to a child are filled from
    the last child back to the first, then the links from a child to its
    parent from the first child on, with no recursion.

    Links only go to sides that hold a clique of three or more vertices or
    a two-vertex clique that carries a claim.  A two-vertex clique {a, b}
    reached from a starts a group with subproblem {b}: its separator {a}
    strictly holds no nonempty separator, and the separators beyond it are
    one vertex too, so only a claim b -> a can reject there.  A side of
    claim-free two-vertex cliques leaves lone vertices, which count 1.

    ``parents`` lists each clique's parent (None at clique 0, the root),
    parents before their children.  Returns ``(sides, chains, walked)``:
    ``sides[i]`` lists the entries of the links out of clique i, so picking
    it is rejected iff one of them is None, ``chains[i]`` is clique i's
    forbidden-prefix chain in ``_phi_with_ctx``'s form, and ``walked``
    counts the cliques the group passes reached.  A clique's prefixes are
    the separators on its root path that lie inside it (the mask form of
    ``oracle.forbidden_prefixes``): its parent's chain cut to the clique,
    then its own separator, which holds all of them by the running
    intersection property.  A chain is strictly nested, so when one prefix
    lies inside the clique so do all smaller ones: the cut keeps a leading
    slice of the parent's chain, found by walking back from its end.
    """
    m = len(cliques)
    below = [
        c.bit_count() > 2 or (c & targets and any(preds[v] & c for v in _iter_bits(c & targets)))
        for c in cliques
    ]  # then the number of such cliques in each subtree
    for i in range(m - 1, 0, -1):
        below[parents[i]] += below[i]
    total = below[0]
    links = [[] for _ in cliques]  # (neighbour, separator, ban, table slot)
    down, up = [], []  # (from, link) in fill order
    chains = [()] * m
    for i in range(1, m):
        p = parents[i]
        clique = cliques[i]
        sep = clique & cliques[p]
        ban = 0
        inner = sep & targets
        if inner:
            for v in _iter_bits(inner):
                ban |= preds[v]
        chain = chains[p]
        k = len(chain)
        while k and chain[k - 1][0] & ~clique:  # nested, so the kept ones are a prefix
            k -= 1
        chain = chain[:k]
        chains[i] = chain if k and chain[-1][0] == sep else chain + ((sep, ban & ~sep),)
        if below[i]:
            link = (i, sep, ban, i)
            links[p].append(link)
            down.append((p, link))
        if below[i] < total:
            link = (p, sep, ban, m + i)
            links[i].append(link)
            up.append((i, link))
    down.reverse()
    table = [None] * (2 * m)
    walked = 0
    for x, (y, s, ban, slot) in down + up:
        top = cliques[y] & ~s
        walked += 1
        if ban & top:
            continue
        sub = top
        group, above = [top], [None]  # the group's clique tree
        visit = [(y, x)]  # each clique of the group, where it was reached from
        found = []
        ok = True
        for j, (c, came) in enumerate(visit):
            for z, t, _, k in links[c]:
                if z == came:
                    continue
                if t != s and not s & ~t:  # t strictly holds S: z joins
                    new = cliques[z] & ~s
                    walked += 1
                    if ban & new:
                        ok = False
                        break
                    sub |= new
                    group.append(new)
                    above.append(j)
                    visit.append((z, c))
                else:
                    side = table[k]
                    if side is None:
                        ok = False
                        break
                    found.extend(side)
            if not ok:
                break
        if ok:
            if sub & (sub - 1):
                found.append((sub, (group, above)))
            table[slot] = found
    return [[table[k] for _, _, _, k in out] for out in links], chains, walked


@dataclass(frozen=True)
class ComponentStats:
    vertices: int
    maximal_cliques: int
    distinct_subproblems: int


@dataclass(frozen=True)
class SessionStats:
    """Whole-session counters.  ``walked_cliques`` counts the cliques the
    group passes of ``_group_table`` reached, and ``phi_empty_evaluations``
    the prefix-free counts of masks that hold a claim target (a mask with
    none counts |x|! without the cache)."""

    components: tuple
    clique_picks: int
    walked_cliques: int
    phi_chain_evaluations: int
    phi_empty_evaluations: int
    psi_evaluations: int
    memo_hits: int

    @property
    def distinct_subproblems(self) -> int:
        return sum(c.distinct_subproblems for c in self.components)


@dataclass(frozen=True)
class SessionResult:
    count: int
    stats: SessionStats


class CountingSession:
    """One counting run over a fixed host skeleton and claim set.

    ``preds`` and ``targets`` are the host's claim masks (``_claim_masks``).
    Holds the memo table over subproblem vertex masks and the shared
    permutation caches; reusing a session with a different host graph or
    claim set is unsound.
    """

    def __init__(self, preds, targets: int):
        self.ctx = _PermCounter(preds, targets)
        self.memo = {}
        self.clique_picks = 0
        self.walked_cliques = 0
        self.phi_chain_evals = 0
        self.memo_hits = 0

    def _count(self, sub: int, tree: tuple) -> int:
        """Count the connected chordal subproblem ``sub``.

        ``tree`` is its ``(cliques, parents)``, parents listed before their
        children.  Each clique is picked in turn, and one table of the
        clique tree's sides (``_group_table``) gives every pick's flag and
        subproblems, each with its own clique tree; lone vertices count 1
        and are never passed here.

        A handed-down tree is a clique tree of its subproblem.  Say its group
        starts on the link x -> y with separator S.  No vertex of the
        subproblem lies in x, so none lies in a clique on x's side, and each
        lies in a group clique.  A clique Q of G[sub] lies, by the Helly
        property of subtrees, in some clique D of the tree.  If D is not in
        the group it lies beyond a link c -> z leaving the group, and every
        vertex of Q, in D and in a group clique, lies in c on the path
        between them.  So every clique of G[sub] lies in a group clique
        minus S.  Group cliques all hold S, so no C - S lies inside another
        C' - S, and these are exactly the maximal cliques of G[sub].  The
        group cliques holding a vertex are the part of its subtree inside
        the group's subtree, which is connected, so the tree keeps the
        running-intersection property.

        From a subproblem of two or more vertices the recursion is at most
        w - 1 calls deep, w the size of the largest clique.  A subproblem is
        a group's cliques minus the group's separator S, which is not empty,
        and every clique of the group holds S (each clique's separator holds
        its group's S).  So some vertex x of the parent is adjacent to the
        whole subproblem.  Each level's x lies inside every subproblem above
        it, so the x of all levels are pairwise adjacent, and with an edge of
        the deepest subproblem (connected, two or more vertices) they form a
        clique.
        """
        val = self.memo.get(sub)
        if val is not None:
            self.memo_hits += 1
            return val
        cliques, parents = tree
        ctx = self.ctx
        if len(cliques) == 1:
            val = ctx.phi_empty(sub)
            self.memo[sub] = val
            return val
        sides, chains, walked = _group_table(cliques, parents, ctx.preds, ctx.targets)
        self.walked_cliques += walked
        known = {}  # own() of the masks this tree's picks have met
        total = 0
        for clique, chain, entries in zip(cliques, chains, sides):
            self.clique_picks += 1
            if None in entries:  # every flag is read before any recursion
                continue
            prod = 1
            for entry in entries:
                for h, t in entry:
                    prod *= self._count(h, t)
            self.phi_chain_evals += 1
            total += prod * _phi_with_ctx(ctx, clique, chain, known)
        self.memo[sub] = total
        return total

    def stats(self, components) -> SessionStats:
        return SessionStats(
            components=tuple(components),
            clique_picks=self.clique_picks,
            walked_cliques=self.walked_cliques,
            phi_chain_evaluations=self.phi_chain_evals,
            phi_empty_evaluations=self.ctx.phi0_evals,
            psi_evaluations=self.ctx.psi_evals,
            memo_hits=self.memo_hits,
        )


def count_uccg(g: UndirectedGraph, knowledge) -> int:
    """Count the acyclic moral orientations of a connected chordal graph."""
    pairs = _pairs_of(knowledge)
    for u, v in pairs:
        if u not in g.bit or not g.has_edge(u, v):
            raise ValueError(f"claim {u}->{v} is not an edge of the graph")
    if g.n == 0:
        raise ValueError("graph is empty")
    cliques, parents, nonchordal = g._mcs()
    if parents.count(None) != 1:  # each component starts with a parentless clique
        raise ValueError("clique tree requires a connected graph")
    if nonchordal:
        raise ValueError("graph is not chordal")
    session = CountingSession(*_claim_masks(g.bit, pairs))
    return session._count((1 << g.n) - 1, (cliques, parents))


def count_session(instance: MecInstance) -> SessionResult:
    """Validate, then count an instance with one shared memo and caches.

    Raises InvalidInstanceError when validation fails.  Returns the exact
    count together with per-component and whole-session statistics.
    """
    graph = instance.graph
    # Vertex v holds bit v, so the masks of all components share one bit
    # space and can share the memo soundly.
    bit = {v: 1 << v for v in range(graph.n)}
    session = CountingSession(*_claim_masks(bit, instance.knowledge.pairs))
    violations = validate(instance)
    if violations:
        raise InvalidInstanceError(violations)
    comp_stats = []
    if any((v, u) in graph.directed for (u, v) in instance.knowledge):
        count = 0  # a claim reverses one of the graph's own directed edges
    else:
        count = 1
        for sub, cliques, parents in graph.undirected_forest()[0]:
            before = len(session.memo)
            count *= session._count(sub, (cliques, parents))
            comp_stats.append(
                ComponentStats(
                    vertices=sub.bit_count(),
                    maximal_cliques=len(cliques),
                    distinct_subproblems=len(session.memo) - before,
                )
            )
    return SessionResult(count=count, stats=session.stats(comp_stats))
