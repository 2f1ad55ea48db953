"""Exhaustive ground truth: exact locally irregular chromatic index and
decomposability for small instances.

The search assigns edges in BFS order from a max-degree vertex. A vertex's
color degrees are final once its last incident edge in that order is
assigned, and an edge can only be checked once both its endpoints are
final. Since the order is fixed before the search starts, `_schedule`
precomputes, for each step, the edges whose endpoints become final there
(backchecking, Haralick & Elliott, Artificial Intelligence 14, 1980); after
placing a state the search tests only those. Both engines are explicit-stack
loops, so the instance size is not bounded by the recursion limit.

Symmetry is broken twice, by lex-leader constraints over the edge order
(Crawford, Ginsberg, Luks & Roy, KR 1996). Colors: restricted growth in
graph mode, a non-increasing first edge in multigraph mode. Vertices:
twins a, b (same open or same closed neighbourhood) make the transposition
(a b) an automorphism, and `_lex_checks` turns each consecutive pair of a
twin class into checks that backtrack once the assignment is lex-larger
than its image. Values are compared in the order the search tries them:
the color, or the rank in `compositions(mult, k)`. The search visits
assignments in lex order, so its first valid one is the lex-least valid
assignment, which no such constraint excludes: status, color count and
witness are those of the search without them, and only the node count
drops. `is_decomposable(K8)` takes about 0.1 s (103k nodes, 36M without
twin constraints); all 11117 connected graphs on 8 vertices are decided in
about 2 s (2 vCPU, CPython 3.11).

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
instead of 310,287; the slowest, which took 2104 nodes, takes 46. Graph
mode backtracks chronologically: there restricted growth ties each step's
colors to the steps before it, and on the atlas graphs up to 7 vertices
backjumping cut nodes by only 15 % (49,322 to 41,710) while the 11th-slowest
graph took about 30 % longer and the whole pass about 9 % (best of five
in-process passes, 2 vCPU, CPython 3.11).

Both modes run one ladder, `_ladder`; graph mode runs it on the multigraph
with every multiplicity 1. k = 1 needs no search: the only 1-coloring gives
every edge its whole multiplicity, so it is valid iff the host is locally
irregular, an O(m) degree check. `SolveResult.nodes` therefore counts the states tried at
k >= 2 only. `is_decomposable` is `exact_lir_graph` at the cap floor(m/2)
and ignores `lim.max_colors`. "none" means the search space was exhausted;
a blown node budget yields "inconclusive", never "none".
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .decomposition import Decomposition, verify
from .graphs import Edge, Multigraph, SimpleGraph, is_locally_irregular


class SearchStatus(Enum):
    FOUND = "found"
    NONE = "none"
    INCONCLUSIVE = "inconclusive"


@dataclass
class SearchLimits:
    max_colors: int = 4
    max_edges: int = 24
    node_budget: int = 10**9

    def __post_init__(self):
        if self.max_colors < 1 or self.max_edges < 1 or self.node_budget < 1:
            raise ValueError("search limits must be positive")


@dataclass
class SolveResult:
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
def _edge_states(total: int, k: int, first: bool) -> tuple[tuple[int, ...], ...]:
    """Count vectors of one edge; the first edge takes non-increasing ones
    only (color permutation symmetry)."""
    states = compositions(total, k)
    if first:
        states = tuple(s for s in states if all(s[j] >= s[j + 1] for j in range(k - 1)))
    return states


@lru_cache(maxsize=None)
def _units(total: int, k: int, first: bool) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Each of _edge_states(total, k, first) as its (color, count) pairs
    with count > 0."""
    return tuple(tuple((c, x) for c, x in enumerate(s) if x) for s in _edge_states(total, k, first))


def _edge_order(g: SimpleGraph) -> list[Edge]:
    """Edges sorted so vertices finish early: BFS from a max-degree vertex,
    each edge at its later endpoint's BFS position, then by the earlier one's.
    """
    adj = g.adj
    n = g.n
    pos = [-1] * n
    seq: list[int] = []  # vertices by BFS position; the BFS queue too
    back: list[list[Edge]] = [[] for _ in range(n)]  # edges to earlier vertices
    for root in sorted(range(n), key=[len(nb) for nb in adj].__getitem__, reverse=True):
        if pos[root] != -1:
            continue
        head = pos[root] = len(seq)
        seq.append(root)
        while head < len(seq):
            u = seq[head]
            for w in adj[u]:
                if pos[w] == -1:
                    pos[w] = len(seq)
                    seq.append(w)
                if pos[w] > head:  # u is taken in BFS order, so back[w] stays sorted
                    back[w].append((u, w) if u < w else (w, u))
            head += 1
    return [e for v in seq for e in back[v]]


def _schedule(n: int, edges: list[Edge]) -> list[list[tuple[int, int, int, int]]]:
    """Backchecks per step: checks[i] lists the (j, v, o, near) of every
    edge j = {v, o} whose two endpoints are both final once edges[i] is
    placed, near being the bit mask of the steps whose edge touches v or o.

    A vertex is final after its last incident edge in the order, the highest
    bit of its mask, so each edge is checked exactly once, at the highest
    bit of near.
    """
    touch = [0] * n
    bit = 1
    for u, v in edges:
        touch[u] |= bit
        touch[v] |= bit
        bit <<= 1
    checks: list[list[tuple[int, int, int, int]]] = [[] for _ in edges]
    for j, (v, o) in enumerate(edges):
        near = touch[v] | touch[o]
        checks[near.bit_length() - 1].append((j, v, o, near))
    return checks


def _lex_checks(
    g: SimpleGraph, edges: list[Edge], mult: dict[Edge, int] | None = None
) -> list[tuple[tuple[tuple[int, int], ...], ...]]:
    """Lex-leader checks per step from twin transpositions.

    Twins a, b (same open or same closed neighbourhood) make (a b) an
    automorphism; on a multigraph it counts only when mult(aw) = mult(bw)
    for every w. It swaps the edges at positions f < s in the pairs
    (pos(aw), pos(bw)), w in N(a) - {b}, so the lex-least valid assignment
    x has x[f] < x[s] at the first pair, by f, where the two differ.

    `_edge_order` ranks an edge by its endpoints' BFS positions, later one
    first, so pos(aw) and pos(bw) both grow with w's BFS position: sorted
    by f, the pairs are sorted by s too. lex[i] holds, for each pair with
    s = i, the pairs up to it; after step i the search compares them in
    order and backtracks when the first differing pair has x[f] > x[s].
    """
    lex: list = [()] * len(edges)
    # open neighbourhoods as bit masks, kept for vertices with edges only so
    # that isolated vertices cost nothing; an open neighbourhood never
    # equals another vertex's closed one, so both kinds share one table
    opened = [0] * g.n
    for u, v in edges:
        opened[u] |= 1 << v
        opened[v] |= 1 << u
    last: dict[int, int] = {}  # the latest vertex with each neighbourhood
    swaps = []
    for v, bits in enumerate(opened):
        if not bits:
            continue
        a = last.get(bits)
        if a is not None:
            swaps.append((a, v))
        last[bits] = v
        bits |= 1 << v
        a = last.get(bits)
        if a is not None:
            swaps.append((a, v))
        last[bits] = v
    if not swaps:
        return lex
    adj = g.adj
    pos = {e: i for i, e in enumerate(edges)}
    if mult is not None and len(set(mult.values())) == 1:
        mult = None  # every transposition qualifies
    for a, b in swaps:
        pairs = []
        for w in adj[a]:
            if w != b:
                ea = (a, w) if a < w else (w, a)
                eb = (b, w) if b < w else (w, b)
                if mult is not None and mult[ea] != mult[eb]:
                    break
                p = pos[ea]
                q = pos[eb]
                pairs.append((p, q) if p < q else (q, p))
        else:
            pairs.sort()
            for t, (_, s) in enumerate(pairs):
                lex[s] += (tuple(pairs[: t + 1]),)
    return lex


def _search_multigraph_k(
    m: Multigraph,
    edges: list[Edge],
    checks: list[list[tuple[int, int, int, int]]],
    lex: list[tuple[tuple[tuple[int, int], ...], ...]],
    k: int,
    budget: list[int],
) -> list[tuple[int, ...]] | None:
    """Find a valid k-coloring of m, as count vectors in the order of
    edges, or None after exhausting the space.

    edges is _edge_order(m.base), checks is _schedule and lex is _lex_checks
    over it. A state's value is its rank in compositions(mult, k), the order
    the search tries states in. budget[0] is decremented per search node;
    raises _BudgetExhausted when it runs out. conf[i] collects the steps that
    the failures at and below step i depend on.
    """
    n_edges = len(edges)
    deg = [[0] * k for _ in range(m.n)]
    mult = m.mult
    # an edge's states depend on its multiplicity, and on being the first
    kinds = set(mult.values())
    states_of = {mu: _edge_states(mu, k, False) for mu in kinds}
    units_of = {mu: _units(mu, k, False) for mu in kinds}
    state_lists = [states_of[mult[e]] for e in edges]
    unit_lists = [units_of[mult[e]] for e in edges]
    if n_edges:
        state_lists[0] = _edge_states(mult[edges[0]], k, True)
        unit_lists[0] = _units(mult[edges[0]], k, True)
    # per step: both endpoints' color degrees, each state's (color, count)
    # units, the backchecks against the endpoints' color degrees with the
    # steps at either endpoint, and the lex-leader checks
    steps = [
        (deg[u], deg[v], options, step and [(j, deg[a], deg[b], near) for j, a, b, near in step], twins)
        for (u, v), options, step, twins in zip(edges, unit_lists, checks, lex)
    ]
    pick = [0] * n_edges  # states tried so far at each step
    units: list[tuple[tuple[int, int], ...]] = [()] * n_edges
    conf = [0] * n_edges  # conflict set of each step, bit h for step h
    i = 0
    while n_edges:  # an edgeless host has just the empty coloring
        du, dv, options, tests, twins = steps[i]
        p = pick[i]
        if p:  # take back the state tried last at this step
            for c, x in units[i]:
                du[c] -= x
                dv[c] -= x
            if p == len(options):
                # no state fits: jump back to the latest step the failures
                # depend on, handing it the rest of the conflict set
                cause = conf[i] & ((1 << i) - 1)
                if not cause:
                    return None
                h = cause.bit_length() - 1
                conf[h] |= cause
                pick[i] = conf[i] = 0
                for t in range(h + 1, i):  # skipped steps: take back their states
                    dt, ut = steps[t][0], steps[t][1]
                    for c, x in units[t]:
                        dt[c] -= x
                        ut[c] -= x
                    pick[t] = conf[t] = 0
                i = h
                continue
        budget[0] -= 1
        if budget[0] < 0:
            raise _BudgetExhausted
        pick[i] = p + 1
        placed = units[i] = options[p]
        for c, x in placed:
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
                    xf = state_lists[f][pick[f] - 1]
                    xs = state_lists[s][pick[s] - 1]
                    if xf != xs:
                        break
                else:
                    continue
                if xf < xs:  # a lex-larger vector has a lower rank
                    # the pairs up to the failing one decide the comparison
                    for g, t in pairs:
                        conf[i] |= 1 << g | 1 << t
                        if g == f:
                            break
                    break
            else:
                i += 1
                if i == n_edges:
                    break
    return [states[q - 1] for states, q in zip(state_lists, pick)]


def _search_graph_k(
    m: Multigraph,
    edges: list[Edge],
    checks: list[list[tuple[int, int, int, int]]],
    lex: list[tuple[tuple[tuple[int, int], ...], ...]],
    k: int,
    budget: list[int],
) -> list[tuple[int, ...]] | None:
    """One color per edge of m (multiplicities all 1), colors introduced in
    index order (restricted growth), as unit count vectors in edges' order.

    edges is _edge_order(m.base), checks is _schedule and lex is _lex_checks
    over it; a state's value is its color.
    """
    n_edges = len(edges)
    deg = [[0] * k for _ in range(m.n)]
    steps = [
        (deg[u], deg[v], step and [(j, deg[a], deg[b]) for j, a, b, _ in step], twins)
        for (u, v), step, twins in zip(edges, checks, lex)
    ]
    color = [-1] * n_edges
    used = [0] * (n_edges + 1)  # colors in use before each step
    i = 0
    while n_edges:  # an edgeless graph has just the empty coloring
        du, dv, tests, twins = steps[i]
        c = color[i]
        if c >= 0:  # take back the color tried last at this step
            du[c] -= 1
            dv[c] -= 1
            if c + 1 == (used[i] + 1 if used[i] < k else k):
                color[i] = -1
                if i == 0:
                    return None
                i -= 1
                continue
        c += 1
        budget[0] -= 1
        if budget[0] < 0:
            raise _BudgetExhausted
        color[i] = c
        du[c] += 1
        dv[c] += 1
        for j, da, db in tests:
            cj = color[j]
            if da[cj] == db[cj]:
                break
        else:
            for pairs in twins:
                for f, s in pairs:
                    cf = color[f]
                    cs = color[s]
                    if cf != cs:
                        break
                else:
                    continue
                if cf > cs:  # the swapped assignment is lex-smaller
                    break
            else:
                used[i + 1] = used[i] if c < used[i] else c + 1
                i += 1
                if i == n_edges:
                    break
    units = [(0,) * c + (1,) + (0,) * (k - 1 - c) for c in range(k)]
    return [units[c] for c in color]


def _checked(d: Decomposition) -> Decomposition:
    report = verify(d)
    if not report.valid:
        raise AssertionError(f"search produced an invalid witness: {report.conflicts}")
    return d


def _ladder(m: Multigraph, lim: SearchLimits | None, search) -> SolveResult:
    """Smallest k <= lim.max_colors admitting a valid coloring of m, with
    witness: k = 1 by the degree check, then search(m, edges, checks, lex,
    k, budget) for k = 2, 3, .. over one shared node budget."""
    lim = lim or SearchLimits()
    if len(m.edges) > lim.max_edges:
        raise ValueError(f"too many edges: {len(m.edges)} > limit {lim.max_edges}")
    if is_locally_irregular(m):
        # the only 1-coloring gives every edge its whole multiplicity
        witness = _checked(Decomposition(m, 1, [(mu,) for mu in m.mult.values()]))
        return SolveResult(SearchStatus.FOUND, 1, witness, 0)
    budget = [lim.node_budget]
    edges = _edge_order(m.base)
    checks = _schedule(m.n, edges)
    lex = _lex_checks(m.base, edges, m.mult)
    for k in range(2, lim.max_colors + 1):
        try:
            found = search(m, edges, checks, lex, k, budget)
        except _BudgetExhausted:
            return SolveResult(SearchStatus.INCONCLUSIVE, nodes=lim.node_budget)
        if found is not None:
            # the host's edge order is edges sorted
            host_order = sorted(range(len(edges)), key=edges.__getitem__)
            witness = _checked(Decomposition(m, k, [found[i] for i in host_order]))
            return SolveResult(
                SearchStatus.FOUND, k, witness, lim.node_budget - budget[0]
            )
    return SolveResult(SearchStatus.NONE, nodes=lim.node_budget - budget[0])


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
    # exact_lir_graph applies the edge cap (lim.max_edges >= 1)
    if g.m == 0:
        return SolveResult(SearchStatus.FOUND, 0, None, 0)
    if g.m == 1:
        return SolveResult(SearchStatus.NONE, nodes=0)
    lim = lim or SearchLimits()
    return exact_lir_graph(g, SearchLimits(g.m // 2, lim.max_edges, lim.node_budget))
