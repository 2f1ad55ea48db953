"""Exhaustive ground truth: exact locally irregular chromatic index and
decomposability for small instances.

The search assigns edges in BFS order from a max-degree vertex; a vertex's
color degrees are final once all its incident edges are assigned, which
makes endpoint-completion conflict checks sound pruning. "none" means the
search space was exhausted; a blown node budget yields "inconclusive", never
"none".
"""

from __future__ import annotations

import random
from collections import deque
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


def _edge_order(g: SimpleGraph) -> list[Edge]:
    """Edges sorted so vertices finish early: BFS from a max-degree vertex."""
    if not g.edges:
        return []
    pos = [-1] * g.n
    order = 0
    for s in sorted(range(g.n), key=lambda v: -len(g.adj[v])):
        if pos[s] != -1:
            continue
        pos[s] = order
        order += 1
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in g.adj[u]:
                if pos[w] == -1:
                    pos[w] = order
                    order += 1
                    queue.append(w)
    return sorted(
        g.edges, key=lambda e: (max(pos[e[0]], pos[e[1]]), min(pos[e[0]], pos[e[1]]))
    )


def _search_multigraph_k(
    m: Multigraph, edges: list[Edge], k: int, budget: list[int]
) -> dict[Edge, tuple[int, ...]] | None:
    """Find a valid k-coloring of m, or None after exhausting the space.

    edges is _edge_order(m.base). budget[0] is decremented per search node;
    raises _BudgetExhausted when it runs out. First edge restricted to
    non-increasing count vectors (color permutation symmetry).
    """
    g = m.base
    n_edges = len(edges)
    state_lists: list[tuple[tuple[int, ...], ...]] = []
    for i, e in enumerate(edges):
        states = compositions(m.mult[e], k)
        if i == 0:
            states = tuple(
                s for s in states if all(s[j] >= s[j + 1] for j in range(k - 1))
            )
        state_lists.append(states)
    deg = [[0] * k for _ in range(g.n)]
    left = [len(g.adj[v]) for v in range(g.n)]
    inc: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(edges):
        inc[u].append(i)
        inc[v].append(i)
    chosen: list[tuple[int, ...] | None] = [None] * n_edges

    def completed_conflict(v: int) -> bool:
        dv = deg[v]
        for ei in inc[v]:
            a, b = edges[ei]
            o = b if a == v else a
            if left[o] == 0:
                do = deg[o]
                s = chosen[ei]
                for c in range(k):
                    if s[c] and dv[c] == do[c]:
                        return True
        return False

    def dfs(i: int) -> bool:
        if i == n_edges:
            return True
        u, v = edges[i]
        du, dv = deg[u], deg[v]
        for s in state_lists[i]:
            budget[0] -= 1
            if budget[0] < 0:
                raise _BudgetExhausted
            chosen[i] = s
            for c in range(k):
                if s[c]:
                    du[c] += s[c]
                    dv[c] += s[c]
            left[u] -= 1
            left[v] -= 1
            ok = not (left[u] == 0 and completed_conflict(u))
            if ok and left[v] == 0 and completed_conflict(v):
                ok = False
            if ok and dfs(i + 1):
                return True
            left[u] += 1
            left[v] += 1
            for c in range(k):
                if s[c]:
                    du[c] -= s[c]
                    dv[c] -= s[c]
        chosen[i] = None
        return False

    if dfs(0):
        return {edges[i]: chosen[i] for i in range(n_edges)}
    return None


def _search_graph_k(
    g: SimpleGraph, edges: list[Edge], k: int, budget: list[int]
) -> list[int] | None:
    """One color per edge, colors introduced in index order (restricted growth).

    edges is _edge_order(g).
    """
    n_edges = len(edges)
    deg = [[0] * k for _ in range(g.n)]
    left = [len(g.adj[v]) for v in range(g.n)]
    inc: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(edges):
        inc[u].append(i)
        inc[v].append(i)
    color = [-1] * n_edges

    def completed_conflict(v: int) -> bool:
        dv = deg[v]
        for ei in inc[v]:
            a, b = edges[ei]
            o = b if a == v else a
            if left[o] == 0:
                c = color[ei]
                if dv[c] == deg[o][c]:
                    return True
        return False

    def dfs(i: int, used: int) -> bool:
        if i == n_edges:
            return True
        u, v = edges[i]
        du, dv = deg[u], deg[v]
        limit = used + 1 if used < k else k
        for c in range(limit):
            budget[0] -= 1
            if budget[0] < 0:
                raise _BudgetExhausted
            color[i] = c
            du[c] += 1
            dv[c] += 1
            left[u] -= 1
            left[v] -= 1
            ok = not (left[u] == 0 and completed_conflict(u))
            if ok and left[v] == 0 and completed_conflict(v):
                ok = False
            if ok and dfs(i + 1, used if c < used else c + 1):
                return True
            left[u] += 1
            left[v] += 1
            du[c] -= 1
            dv[c] -= 1
        color[i] = -1
        return False

    if dfs(0, 0):
        return [color[i] for i in range(n_edges)]
    return None


def _one_per_edge_witness(g: SimpleGraph, edges: list[Edge], colors: list[int], k: int) -> Decomposition:
    host = Multigraph(g)
    assign = {}
    for e, c in zip(edges, colors):
        counts = [0] * k
        counts[c] = 1
        assign[e] = tuple(counts)
    return Decomposition(host, k, assign)


def _checked(d: Decomposition) -> Decomposition:
    report = verify(d)
    if not report.valid:
        raise AssertionError(f"search produced an invalid witness: {report.conflicts}")
    return d


def exact_lir_multigraph(m: Multigraph, lim: SearchLimits | None = None) -> SolveResult:
    """Smallest k <= lim.max_colors admitting a valid coloring of m, with witness."""
    lim = lim or SearchLimits()
    if len(m.edges) > lim.max_edges:
        raise ValueError(f"too many edges: {len(m.edges)} > limit {lim.max_edges}")
    budget = [lim.node_budget]
    edges = _edge_order(m.base)
    for k in range(1, lim.max_colors + 1):
        try:
            found = _search_multigraph_k(m, edges, k, budget)
        except _BudgetExhausted:
            return SolveResult(SearchStatus.INCONCLUSIVE, nodes=lim.node_budget)
        if found is not None:
            witness = _checked(Decomposition(m, k, found))
            return SolveResult(
                SearchStatus.FOUND, k, witness, lim.node_budget - budget[0]
            )
    return SolveResult(SearchStatus.NONE, nodes=lim.node_budget - budget[0])


def exact_lir_graph(g: SimpleGraph, lim: SearchLimits | None = None) -> SolveResult:
    """Smallest k <= lim.max_colors decomposing g into locally irregular graphs."""
    lim = lim or SearchLimits()
    if g.m > lim.max_edges:
        raise ValueError(f"too many edges: {g.m} > limit {lim.max_edges}")
    budget = [lim.node_budget]
    edges = _edge_order(g)
    for k in range(1, lim.max_colors + 1):
        try:
            found = _search_graph_k(g, edges, k, budget)
        except _BudgetExhausted:
            return SolveResult(SearchStatus.INCONCLUSIVE, nodes=lim.node_budget)
        if found is not None:
            witness = _checked(_one_per_edge_witness(g, edges, found, k))
            return SolveResult(
                SearchStatus.FOUND, k, witness, lim.node_budget - budget[0]
            )
    return SolveResult(SearchStatus.NONE, nodes=lim.node_budget - budget[0])


def two_color_brute(m: Multigraph) -> Decomposition | None:
    """Unpruned cross-check path for doubled multigraphs at k=2.

    Walks a base-3 counter over per-multiedge states (0=RR, 1=RB, 2=BB) and
    returns the first verifier-valid decomposition, or None once the counter
    wraps. Exponential; intended for small cross-check instances only.
    """
    if any(mu != 2 for mu in m.mult.values()):
        raise ValueError("cross-check path expects a doubled multigraph")
    states = ((2, 0), (1, 1), (0, 2))
    edges = list(m.edges)
    n_edges = len(edges)
    for code in range(3**n_edges):
        assign = {}
        rest = code
        for e in edges:
            assign[e] = states[rest % 3]
            rest //= 3
        d = Decomposition(m, 2, assign)
        if verify(d).valid:
            return d
    return None


def _random_probe(
    g: SimpleGraph, cap: int, budget: list[int], tries: int = 400
) -> tuple[int, list[int]] | None:
    """Cheap randomized pre-pass: may find a partition, never proves absence."""
    if cap < 2:
        return None
    edges = g.edges
    n_edges = len(edges)
    rng = random.Random(0x1F2D)
    for t in range(tries):
        k = 2 + t % min(3, cap - 1)
        budget[0] -= 1
        if budget[0] < 0:
            raise _BudgetExhausted
        colors = [rng.randrange(k) for _ in range(n_edges)]
        deg = [[0] * k for _ in range(g.n)]
        for (u, v), c in zip(edges, colors):
            deg[u][c] += 1
            deg[v][c] += 1
        if all(deg[u][c] != deg[v][c] for (u, v), c in zip(edges, colors)):
            return k, colors
    return None


def is_decomposable(g: SimpleGraph, lim: SearchLimits | None = None) -> SolveResult:
    """Does any partition of E(g) into locally irregular subgraphs exist?

    Class count is capped at floor(m/2): a single-edge class always ties its
    endpoints at degree 1. FOUND carries a verified witness partition.
    """
    lim = lim or SearchLimits()
    if g.m > lim.max_edges:
        raise ValueError(f"too many edges: {g.m} > limit {lim.max_edges}")
    budget = [lim.node_budget]
    cap = g.m // 2
    if cap == 0:
        # zero or one edge: lone edges tie, the empty graph is vacuously fine
        if g.m == 0:
            return SolveResult(SearchStatus.FOUND, 0, None, 0)
        return SolveResult(SearchStatus.NONE, nodes=0)
    if is_locally_irregular(Multigraph(g)):
        witness = _checked(_one_per_edge_witness(g, list(g.edges), [0] * g.m, 1))
        return SolveResult(SearchStatus.FOUND, 1, witness, 0)
    try:
        probed = _random_probe(g, cap, budget)
        if probed is not None:
            k, colors = probed
            witness = _checked(_one_per_edge_witness(g, list(g.edges), colors, k))
            return SolveResult(
                SearchStatus.FOUND, k, witness, lim.node_budget - budget[0]
            )
        edges = _edge_order(g)
        for k in range(2, cap + 1):
            found = _search_graph_k(g, edges, k, budget)
            if found is not None:
                witness = _checked(_one_per_edge_witness(g, edges, found, k))
                return SolveResult(
                    SearchStatus.FOUND, k, witness, lim.node_budget - budget[0]
                )
    except _BudgetExhausted:
        return SolveResult(SearchStatus.INCONCLUSIVE, nodes=lim.node_budget)
    return SolveResult(SearchStatus.NONE, nodes=lim.node_budget - budget[0])
