"""Exhaustive ground truth: exact locally irregular chromatic index and
decomposability for small instances.

The search assigns edges in BFS order from a max-degree vertex. A vertex's
color degrees are final once its last incident edge in that order is
assigned, and an edge can only be checked once both its endpoints are
final (backchecking, Haralick & Elliott, Artificial Intelligence 14, 1980).
Since the order is fixed before the search starts, `_plan` builds, in one
pass per ladder, the tables both search loops read: per step the
color-degree rows of the edge's endpoints, the backchecks that become due
there with their rows and conflict masks, and the twin checks. A further k
only widens the rows by one color. Both engines are explicit-stack loops,
so the instance size is not bounded by the recursion limit.

Symmetry is broken twice, by lex-leader constraints over the edge order
(Crawford, Ginsberg, Luks & Roy, KR 1996). Colors: restricted growth in
graph mode, a non-increasing first edge in multigraph mode. Vertices:
twins a, b (same open or same closed neighbourhood) make the transposition
(a b) an automorphism, and `_plan` turns each consecutive pair of a twin
class into checks that backtrack once the assignment is lex-larger than
its image. Values are compared in the order the search tries them: the
color, or the rank in `compositions(mult, k)`. The search visits
assignments in lex order, so its first valid one is the lex-least valid
assignment, which no such constraint excludes: status, color count and
witness are those of the search without them, and only the node count
drops. `is_decomposable(K8)` takes about 0.05 s (103k nodes, 36M without
twin constraints); all 11117 connected graphs on 8 vertices are decided in
about 0.9 s, with max_edges=28 (2 vCPU Intel Xeon, CPython 3.11.7).

The doubled-mode search also backjumps (conflict-directed backjumping,
Prosser, Computational Intelligence 9, 1993). Each step keeps a bit mask of
the earlier steps its failures depend on: a failed backcheck on edge
{a, b} adds every step whose edge touches a or b, a failed twin check the
steps of the pairs it compared. A step that runs out of states jumps to the
latest step in its mask, hands it the rest of the mask, and undoes the steps
in between. Only subtrees holding no valid assignment are skipped, so the
first valid assignment, and with it every answer and witness, is the one
chronological backtracking finds (Kondrak & van Beek, Artificial
Intelligence 89, 1997), after no more nodes. The exact-route doubled graphs
among the 11117 connected 8-vertex graphs take 241,091 nodes at k = 2
instead of 310,287. Graph mode backtracks chronologically: restricted
growth ties each step's colors to the steps before it, and on the atlas
graphs up to 7 vertices backjumping cut nodes by only 15 % (49,322 to
41,710) while the pass took about 9 % longer.

Both modes run one ladder, `_ladder`; graph mode runs it on the multigraph
with every multiplicity 1. It tests once whether all multiplicities are
equal, for the k = 1 check and the plan. k = 1 needs no search: the only
1-coloring gives every edge its whole multiplicity, so it is valid iff the
host is locally irregular, an O(m) degree check. `SolveResult.nodes`
counts the states tried at k >= 2 only. `is_decomposable` is
`exact_lir_graph` at the cap floor(m/2) and ignores `lim.max_colors`.
"none" means the search space was exhausted; a blown node budget yields
"inconclusive", never "none".
"""
from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import islice
from typing import NamedTuple

from .decomposition import Decomposition, verify
from .graphs import Edge, Multigraph, SimpleGraph


class SearchStatus(Enum):
    FOUND = "found"
    NONE = "none"
    INCONCLUSIVE = "inconclusive"


class SearchLimits(
    NamedTuple("SearchLimits", [("max_colors", int), ("max_edges", int), ("node_budget", int)])
):
    __slots__ = ()

    def __new__(cls, max_colors: int = 4, max_edges: int = 24, node_budget: int = 10**9):
        if max_colors < 1 or max_edges < 1 or node_budget < 1:
            raise ValueError("search limits must be positive")
        return tuple.__new__(cls, (max_colors, max_edges, node_budget))

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace checks its limits too


class SolveResult(NamedTuple):
    status: SearchStatus
    colors: int | None = None
    witness: Decomposition | None = None
    nodes: int = 0

    @property
    def found(self) -> bool:
        return self.status is SearchStatus.FOUND


class _BudgetExhausted(Exception):
    pass


@lru_cache(maxsize=None)
def compositions(total: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All k-vectors of non-negative ints summing to total, first part descending."""
    if k == 1:
        return ((total,),)
    out = []
    for first in range(total, -1, -1):
        for rest in compositions(total - first, k - 1):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _edge_options(total: int, k: int, first: bool) -> tuple[tuple, ...]:
    """Each count vector of one edge with its (color, count) pairs of count
    > 0; the first edge takes non-increasing ones only (color symmetry)."""
    states = compositions(total, k)
    if first:
        states = tuple(s for s in states if all(s[j] >= s[j + 1] for j in range(k - 1)))
    return tuple((s, tuple((c, x) for c, x in enumerate(s) if x)) for s in states)


def _plan(m: Multigraph, degree: list[int], kinds: set[int]) -> tuple[list, list, list[int], list[int]]:
    """The tables the searches read, built once per ladder: the steps, each
    vertex's color-degree row (None if isolated), the multiplicity at each
    step and the step of each host edge, in host edge order.

    degree holds the degrees in m.base, kinds the set of multiplicities.
    Edges go in BFS order from a max-degree vertex, each at its later
    endpoint's BFS position, then by the earlier one's, so vertices finish
    early. A row starts as the two zeros of k = 2; the ladder widens it by
    one color for each further k. steps[i] is (du, dv, checks, twins) for
    the i-th edge {u, v}, du and dv being the rows of u and v:

    - checks lists the (j, da, db, near) of every edge j = {a, b} whose two
      endpoints are both final once step i is placed, da and db being their
      rows and near the bit mask of the steps whose edge touches a or b. A
      vertex is final after its last incident edge, the highest bit of its
      mask, so each edge is checked exactly once, at the highest bit of near.
    - twins holds the lex-leader checks from twin transpositions. Twins
      a, b (same open or same closed neighbourhood) make (a b) an
      automorphism; on a multigraph it counts only when mult(aw) = mult(bw)
      for every w. It swaps the edges at steps f < s in the pairs
      (step(aw), step(bw)), w in N(a) - {b}, so the lex-least valid
      assignment x has x[f] < x[s] at the first pair, by f, where the two
      differ. Both steps grow with w's BFS position, so the pairs sorted by
      f are sorted by s too. twins holds, for each pair with s = i, the
      pairs up to it; after step i the search compares them in order and
      backtracks when the first differing pair has x[f] > x[s].
    """
    adj = m.base.adj
    n = m.n
    pos = [-1] * n
    seq: list[int] = []  # vertices by BFS position; the BFS queue too
    back: list[list[int]] = []  # per BFS position: the earlier neighbours
    rows: list = [None] * n  # per vertex: its color degrees
    order: list[Edge] = []  # (earlier, later) endpoints by step
    touch = [0] * n  # per vertex: the steps at its edges
    opened = [0] * n  # per vertex: its open neighbourhood
    # roots by degree, isolated vertices left out: they have no edges to order
    for root in sorted(range(n), key=degree.__getitem__, reverse=True):
        if pos[root] != -1 or not degree[root]:
            continue
        start = pos[root] = len(seq)
        seq.append(root)
        back.append([])
        rows[root] = [0, 0]
        # the walk sees the vertices appended while it runs
        for head, u in enumerate(islice(seq, start, None), start):
            # u's edges to earlier vertices are complete: they take the next
            # steps, in the order of those vertices
            for a in back[head]:
                bit = 1 << len(order)
                order.append((a, u))
                touch[a] |= bit
                touch[u] |= bit
                opened[a] |= 1 << u
                opened[u] |= 1 << a
            for w in adj[u]:
                p = pos[w]
                if p == -1:
                    p = pos[w] = len(seq)
                    seq.append(w)
                    back.append([])
                    rows[w] = [0, 0]
                if p > head:  # u is taken in BFS order, so back stays sorted
                    back[p].append(u)
    mus = [*kinds] * len(order) if len(kinds) == 1 else [m.mult[(a, u) if a < u else (u, a)] for a, u in order]
    # an open neighbourhood never equals another vertex's closed one, so
    # both kinds share one table of the latest vertex with each
    last: dict[int, int] = {}
    twins: list = [()] * len(order)
    for b, bits in enumerate(opened):
        for key in (bits, bits | 1 << b) if bits else ():
            a = last.get(key)
            last[key] = b
            if a is None:
                continue
            pairs = []
            for w in adj[a]:
                if w != b:
                    # an edge's step is the one bit its endpoints' masks share
                    p = (touch[a] & touch[w]).bit_length() - 1
                    q = (touch[b] & touch[w]).bit_length() - 1
                    if mus[p] != mus[q]:
                        break
                    pairs.append((p, q) if p < q else (q, p))
            else:
                pairs.sort()
                for t, (_, s) in enumerate(pairs):
                    twins[s] += (tuple(pairs[: t + 1]),)
    checks: list = [()] * len(order)
    steps = []
    for j, (a, u) in enumerate(order):
        da, du = rows[a], rows[u]
        near = touch[a] | touch[u]
        checks[near.bit_length() - 1] += ((j, da, du, near),)
        # checks[j] is complete: a check lands at or after its own step
        steps.append((da, du, checks[j], twins[j]))
    return steps, rows, mus, [(touch[u] & touch[v]).bit_length() - 1 for u, v in m.edges]


def _search_multigraph_k(
    steps: list, mus: list[int], kinds: set[int], k: int, budget: int
) -> tuple[list[tuple[int, ...]] | None, int]:
    """Find a valid k-coloring, as count vectors in the order of the plan's
    steps, or None after exhausting the space, with the node budget left.

    steps and mus are _plan's, kinds the set of multiplicities. A state's
    value is its rank in compositions(mult, k), the order the search tries
    states in. Each search node takes one from budget; raises
    _BudgetExhausted when it runs out. conf[i] collects the steps that the
    failures at and below step i depend on. An exhausted search leaves the
    rows all zero, for the next k.
    """
    n_edges = len(steps)
    # an edge's options depend on its multiplicity, and on being the first
    choices = (
        [_edge_options(mus[0], k, False)] * n_edges if len(kinds) == 1
        else [_edge_options(mu, k, False) for mu in mus]
    )
    choices[0] = _edge_options(mus[0], k, True)
    pick = [0] * n_edges  # states tried so far at each step
    units: list[tuple[tuple[int, int], ...]] = [()] * n_edges
    vectors: list = [None] * n_edges
    conf = [0] * n_edges  # conflict set of each step, bit h for step h
    i = 0
    while True:
        du, dv, tests, twins = steps[i]
        options = choices[i]
        p = pick[i]
        if p:  # take back the state tried last at this step
            for c, x in units[i]:
                du[c] -= x
                dv[c] -= x
            if p == len(options):
                # no state fits: jump back to the latest step the failures
                # depend on, handing it the rest of the conflict set; with
                # none (h = -1), take back every step and stop
                cause = conf[i] & ((1 << i) - 1)
                h = cause.bit_length() - 1
                conf[h] |= cause
                pick[i] = conf[i] = 0
                for t in range(h + 1, i):  # skipped steps: take back their states
                    dt, ut = steps[t][0], steps[t][1]
                    for c, x in units[t]:
                        dt[c] -= x
                        ut[c] -= x
                    pick[t] = conf[t] = 0
                if not cause:
                    return None, budget
                i = h
                continue
        budget -= 1
        if budget < 0:
            raise _BudgetExhausted
        pick[i] = p + 1
        vectors[i], units[i] = options[p]
        for c, x in units[i]:
            du[c] += x
            dv[c] += x
        for j, da, db, near in tests:
            for c, _ in units[j]:
                if da[c] == db[c]:
                    break
            else:
                continue
            conf[i] |= near  # the tie depends on every edge at either endpoint of j
            break
        else:
            for pairs in twins:
                for f, s in pairs:
                    if vectors[f] != vectors[s]:
                        break
                # all pairs equal leave the last pair equal, so nothing fails
                if vectors[f] < vectors[s]:  # a lex-larger vector has a lower rank
                    # every pair decides the comparison: the failing pair is
                    # the last, as each shorter prefix passed at its own s
                    for g, t in pairs:
                        conf[i] |= 1 << g | 1 << t
                    break
            else:
                i += 1
                if i == n_edges:
                    break
    return vectors, budget


def _search_graph_k(
    steps: list, mus: list[int], kinds: set[int], k: int, budget: int
) -> tuple[list[tuple[int, ...]] | None, int]:
    """One color per edge of _plan's steps (multiplicities all 1), colors
    introduced in index order (restricted growth), as unit count vectors in
    step order. A state's value is its color; mus and kinds are not read.
    """
    n_edges = len(steps)
    color = [-1] * n_edges
    used = [0] * n_edges  # colors in use before each step
    i = 0
    while True:
        du, dv, tests, twins = steps[i]
        c = color[i]
        if c >= 0:  # take back the color tried last at this step
            du[c] -= 1
            dv[c] -= 1
            if c + 1 == (used[i] + 1 if used[i] < k else k):
                color[i] = -1
                if i == 0:
                    return None, budget
                i -= 1
                continue
        c += 1
        budget -= 1
        if budget < 0:
            raise _BudgetExhausted
        color[i] = c
        du[c] += 1
        dv[c] += 1
        for j, da, db, _ in tests:
            cj = color[j]
            if da[cj] == db[cj]:
                break
        else:
            for pairs in twins:
                for f, s in pairs:
                    if color[f] != color[s]:
                        break
                if color[f] > color[s]:  # the swapped assignment is lex-smaller
                    break
            else:
                i += 1
                if i == n_edges:
                    break
                used[i] = used[i - 1] if c < used[i - 1] else c + 1
    units = [(0,) * c + (1,) + (0,) * (k - 1 - c) for c in range(k)]
    return [units[c] for c in color], budget


def _checked(d: Decomposition) -> Decomposition:
    report = verify(d)
    if not report.valid:
        raise AssertionError(f"search produced an invalid witness: {report.conflicts}")
    return d


def _ladder(m: Multigraph, lim: SearchLimits | None, search, max_colors: int | None = None) -> SolveResult:
    """Smallest k <= max_colors (lim.max_colors unless given) admitting a
    valid coloring of m, with witness: k = 1 by the degree check, then
    search(steps, mus, kinds, k, budget) for k = 2, 3, .. over one shared
    node budget, each search returning its result and the budget it
    leaves."""
    lim = lim or SearchLimits()
    if len(m.edges) > lim.max_edges:
        raise ValueError(f"too many edges: {len(m.edges)} > limit {lim.max_edges}")
    kinds = set(m.mult.values())
    degree = list(map(len, m.base.adj))
    # k = 1 iff m is locally irregular, and one multiplicity scales every
    # degree alike; an edgeless host ends here, so each search has a first edge
    host_degree = degree if len(kinds) == 1 else [m.degree(v) for v in range(m.n)]
    if all(host_degree[u] != host_degree[v] for u, v in m.edges):
        witness = _checked(Decomposition(m, 1, [(mu,) for mu in m.mult.values()]))
        return SolveResult(SearchStatus.FOUND, 1, witness, 0)
    cap = max_colors or lim.max_colors
    if cap < 2:
        return SolveResult(SearchStatus.NONE, nodes=0)
    budget = lim.node_budget
    steps, rows, mus, rank = _plan(m, degree, kinds)
    for k in range(2, cap + 1):
        try:
            found, budget = search(steps, mus, kinds, k, budget)
        except _BudgetExhausted:
            return SolveResult(SearchStatus.INCONCLUSIVE, nodes=lim.node_budget)
        if found is not None:
            witness = _checked(Decomposition(m, k, list(map(found.__getitem__, rank))))
            return SolveResult(
                SearchStatus.FOUND, k, witness, lim.node_budget - budget
            )
        for row in filter(None, rows):  # the search left it all zero: one more color
            row.append(0)
    return SolveResult(SearchStatus.NONE, nodes=lim.node_budget - budget)


def exact_lir_multigraph(m: Multigraph, lim: SearchLimits | None = None) -> SolveResult:
    """Smallest k <= lim.max_colors admitting a valid coloring of m, with witness."""
    return _ladder(m, lim, _search_multigraph_k)


def exact_lir_graph(g: SimpleGraph, lim: SearchLimits | None = None) -> SolveResult:
    """Smallest k <= lim.max_colors decomposing g into locally irregular graphs."""
    return _ladder(Multigraph(g), lim, _search_graph_k)


def is_decomposable(g: SimpleGraph, lim: SearchLimits | None = None) -> SolveResult:
    """Does any partition of E(g) into locally irregular subgraphs exist?

    Class count is capped at floor(m/2): a single-edge class always ties its
    endpoints at degree 1. Beyond the lone-edge cases this is exact_lir_graph
    at that cap, so FOUND carries the minimum class count and a verified
    witness partition; lim.max_colors is ignored.
    """
    # zero or one edge: lone edges tie, the empty graph is vacuously fine;
    # _ladder applies the edge cap (lim.max_edges >= 1)
    if g.m == 0:
        return SolveResult(SearchStatus.FOUND, 0, None, 0)
    if g.m == 1:
        return SolveResult(SearchStatus.NONE, nodes=0)
    return _ladder(Multigraph(g), lim, _search_graph_k, g.m // 2)
