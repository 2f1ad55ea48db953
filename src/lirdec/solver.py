"""Exhaustive ground truth: exact locally irregular chromatic index and
decomposability for small instances.

The search assigns edges in BFS order from a max-degree vertex. A vertex's
color degrees are final once its last incident edge in that order is
assigned, and an edge can only be checked once both its endpoints are
final. Since the order is fixed before the search starts, `_plan` lists,
once per ladder, for each step the edges whose endpoints become final there
(backchecking, Haralick & Elliott, Artificial Intelligence 14, 1980); after
placing a state the search tests only those. Both engines are explicit-stack
loops, so the instance size is not bounded by the recursion limit.

Symmetry is broken twice, by lex-leader constraints over the edge order
(Crawford, Ginsberg, Luks & Roy, KR 1996). Colors: restricted growth in
graph mode, a non-increasing first edge in multigraph mode. Vertices:
twins a, b (same open or same closed neighbourhood) make the transposition
(a b) an automorphism, and `_plan` turns each consecutive pair of a
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
irregular, an O(m) degree check. `SolveResult.nodes` therefore counts the
states tried at k >= 2 only. `is_decomposable` is `exact_lir_graph` at the
cap floor(m/2) and ignores `lim.max_colors`. "none" means the search space
was exhausted; a blown node budget yields "inconclusive", never "none".
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .decomposition import Decomposition, verify
from .graphs import Edge, Multigraph, SimpleGraph, is_locally_irregular


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
def _edge_states(total: int, k: int, first: bool) -> tuple[tuple, tuple]:
    """Count vectors of one edge, and each as its (color, count) pairs with
    count > 0; the first edge takes non-increasing ones only (color
    permutation symmetry)."""
    states = compositions(total, k)
    if first:
        states = tuple(s for s in states if all(s[j] >= s[j + 1] for j in range(k - 1)))
    return states, tuple(tuple((c, x) for c, x in enumerate(s) if x) for s in states)


def _plan(m: Multigraph) -> tuple[list, dict[Edge, int], set[int]]:
    """The ladder's set-up, built once: the steps, the step of each edge and
    the set of multiplicities.

    Edges go in BFS order from a max-degree vertex, each at its later
    endpoint's BFS position, then by the earlier one's, so vertices finish
    early. steps[i] is (edge, checks, twins) for the i-th edge:

    - checks lists the (j, v, o, near) of every edge j = {v, o} whose two
      endpoints are both final once step i is placed, near being the bit
      mask of the steps whose edge touches v or o. A vertex is final after
      its last incident edge, the highest bit of its mask, so each edge is
      checked exactly once, at the highest bit of near.
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
    degree = [len(nb) for nb in adj]
    pos = [-1] * n
    seq: list[int] = []  # vertices by BFS position; the BFS queue too
    back: list[list[Edge]] = []  # per BFS position: edges to earlier vertices
    # roots by degree, isolated vertices left out: they have no edges to order
    for root in sorted(filter(degree.__getitem__, range(n)), key=degree.__getitem__, reverse=True):
        if pos[root] != -1:
            continue
        head = pos[root] = len(seq)
        seq.append(root)
        back.append([])
        while head < len(seq):
            u = seq[head]
            for w in adj[u]:
                if pos[w] == -1:
                    pos[w] = len(seq)
                    seq.append(w)
                    back.append([])
                if pos[w] > head:  # u is taken in BFS order, so back stays sorted
                    back[pos[w]].append((u, w) if u < w else (w, u))
            head += 1
    order = [e for edges in back for e in edges]
    at = {e: i for i, e in enumerate(order)}
    touch = [0] * n  # per vertex: the steps at its edges
    opened = [0] * n  # per vertex: its open neighbourhood
    for i, (u, v) in enumerate(order):
        touch[u] |= 1 << i
        touch[v] |= 1 << i
        opened[u] |= 1 << v
        opened[v] |= 1 << u
    checks: list[list[tuple[int, int, int, int]]] = [[] for _ in order]
    for j, (v, o) in enumerate(order):
        near = touch[v] | touch[o]
        checks[near.bit_length() - 1].append((j, v, o, near))
    twins: list = [()] * len(order)
    # an open neighbourhood never equals another vertex's closed one, so
    # both kinds share one table of the latest vertex with each
    last: dict[int, int] = {}
    swaps = []
    for v, bits in enumerate(opened):
        if bits:
            for key in (bits, bits | 1 << v):
                if key in last:
                    swaps.append((last[key], v))
                last[key] = v
    kinds = set(m.mult.values())
    mult = m.mult if len(kinds) > 1 else None  # else every transposition counts
    for a, b in swaps:
        pairs = []
        for w in adj[a]:
            if w != b:
                ea = (a, w) if a < w else (w, a)
                eb = (b, w) if b < w else (w, b)
                if mult is not None and mult[ea] != mult[eb]:
                    break
                p = at[ea]
                q = at[eb]
                pairs.append((p, q) if p < q else (q, p))
        else:
            pairs.sort()
            for t, (_, s) in enumerate(pairs):
                twins[s] += (tuple(pairs[: t + 1]),)
    return list(zip(order, checks, twins)), at, kinds


def _search_multigraph_k(
    m: Multigraph, plan: list, kinds: set[int], k: int, budget: int
) -> tuple[list[tuple[int, ...]] | None, int]:
    """Find a valid k-coloring of m, as count vectors in the order of the
    plan's steps, or None after exhausting the space, with the node budget
    left.

    plan and kinds are the steps and multiplicities of _plan(m). A state's
    value is its rank in compositions(mult, k), the order the search tries
    states in. Each search node takes one from budget; raises
    _BudgetExhausted when it runs out. conf[i] collects the steps that the
    failures at and below step i depend on.
    """
    n_edges = len(plan)
    deg = [[0] * k for _ in range(m.n)]
    # an edge's states depend on its multiplicity, and on being the first
    mus = [m.mult[e] for e, _, _ in plan]
    states_of = {mu: _edge_states(mu, k, False) for mu in kinds}
    per_step = [states_of[mu] for mu in mus]
    per_step[0] = _edge_states(mus[0], k, True)
    state_lists = [states for states, _ in per_step]
    # per step: both endpoints' color degrees, each state's (color, count)
    # units, the backchecks against the endpoints' color degrees with the
    # steps at either endpoint, and the lex-leader checks
    steps = [
        (deg[u], deg[v], options, checks and [(j, deg[a], deg[b], near) for j, a, b, near in checks], twins)
        for ((u, v), checks, twins), (_, options) in zip(plan, per_step)
    ]
    pick = [0] * n_edges  # states tried so far at each step
    units: list[tuple[tuple[int, int], ...]] = [()] * n_edges
    conf = [0] * n_edges  # conflict set of each step, bit h for step h
    i = 0
    while True:
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
                    return None, budget
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
        budget -= 1
        if budget < 0:
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
                # all pairs equal leave xf == xs, so nothing fails
                if xf < xs:  # a lex-larger vector has a lower rank
                    # every pair decides the comparison: the failing pair is
                    # the last, as each shorter prefix passed at its own s
                    for g, t in pairs:
                        conf[i] |= 1 << g | 1 << t
                    break
            else:
                i += 1
                if i == n_edges:
                    break
    return [states[q - 1] for states, q in zip(state_lists, pick)], budget


def _search_graph_k(
    m: Multigraph, plan: list, kinds: set[int], k: int, budget: int
) -> tuple[list[tuple[int, ...]] | None, int]:
    """One color per edge of m (multiplicities all 1, so kinds is {1}),
    colors introduced in index order (restricted growth), as unit count
    vectors in the order of the plan's steps.

    plan is the steps of _plan(m); a state's value is its color.
    """
    n_edges = len(plan)
    deg = [[0] * k for _ in range(m.n)]
    steps = [
        (deg[u], deg[v], checks and [(j, deg[a], deg[b]) for j, a, b, _ in checks], twins)
        for (u, v), checks, twins in plan
    ]
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
                if cf > cs:  # the swapped assignment is lex-smaller
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


def _ladder(m: Multigraph, lim: SearchLimits | None, search) -> SolveResult:
    """Smallest k <= lim.max_colors admitting a valid coloring of m, with
    witness: k = 1 by the degree check, then search(m, plan, kinds, k,
    budget) for k = 2, 3, .. over one shared node budget, each search
    returning its result and the budget it leaves."""
    lim = lim or SearchLimits()
    if len(m.edges) > lim.max_edges:
        raise ValueError(f"too many edges: {len(m.edges)} > limit {lim.max_edges}")
    if is_locally_irregular(m):
        # the only 1-coloring gives every edge its whole multiplicity; an
        # edgeless host ends here, so each search has a first edge
        witness = _checked(Decomposition(m, 1, [(mu,) for mu in m.mult.values()]))
        return SolveResult(SearchStatus.FOUND, 1, witness, 0)
    budget = lim.node_budget
    plan, at, kinds = _plan(m)
    for k in range(2, lim.max_colors + 1):
        try:
            found, budget = search(m, plan, kinds, k, budget)
        except _BudgetExhausted:
            return SolveResult(SearchStatus.INCONCLUSIVE, nodes=lim.node_budget)
        if found is not None:
            witness = _checked(Decomposition(m, k, [found[at[e]] for e in m.edges]))
            return SolveResult(
                SearchStatus.FOUND, k, witness, lim.node_budget - budget
            )
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
    # exact_lir_graph applies the edge cap (lim.max_edges >= 1)
    if g.m == 0:
        return SolveResult(SearchStatus.FOUND, 0, None, 0)
    if g.m == 1:
        return SolveResult(SearchStatus.NONE, nodes=0)
    lim = lim or SearchLimits()
    return exact_lir_graph(g, SearchLimits(g.m // 2, lim.max_edges, lim.node_budget))
