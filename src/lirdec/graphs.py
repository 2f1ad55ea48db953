"""Simple graphs, multigraphs with edge multiplicities, and doubling.

Vertices are integers 0..n-1. Edges are canonicalized as (min, max) pairs.
All structures are immutable after construction and safe to share across
parallel workers.
"""

from __future__ import annotations

from typing import Iterable


Edge = tuple[int, int]


def canon_edge(u: int, v: int) -> Edge:
    """Return the (min, max) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


# Graphs on at most _SHARED_N vertices take their edge and neighbour tuples
# from one table: a catalog holds thousands of such graphs, and ids below 10
# allow only 45 edges and 1024 neighbour sets.
_SHARED_N = 10
_shared: dict[tuple[int, ...], tuple[int, ...]] = {}


def _assemble(g: SimpleGraph, n: int, edges: list[Edge]) -> SimpleGraph:
    """Fill g from sorted canonical edges on vertices 0..n-1, each listed
    once: the end of SimpleGraph's construction, without its checks."""
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:  # each list fills in ascending order
        neighbors[u].append(v)
        neighbors[v].append(u)
    adj = [tuple(ns) for ns in neighbors]
    if n <= _SHARED_N:
        edges = map(_shared.setdefault, edges, edges)
        adj = map(_shared.setdefault, adj, adj)
    g.n = n
    g.edges = tuple(edges)
    g.adj = tuple(adj)
    return g


class SimpleGraph:
    """Undirected simple graph: no loops, no parallel edges.

    Attributes:
        n: vertex count.
        edges: sorted tuple of canonical (u, v) pairs, u < v.
        adj: per-vertex tuple of sorted neighbor tuples.
    """

    __slots__ = ("n", "edges", "adj", "_edge_set")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        seen: set[Edge] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
        _assemble(self, n, sorted(seen))

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        try:
            edge_set = self._edge_set
        except AttributeError:  # built on first use: few callers need it
            edge_set = self._edge_set = frozenset(self.edges)
        return canon_edge(u, v) in edge_set

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def is_connected(self, coloring: list[int] | None = None) -> bool:
        """One walk from vertex 0 that also 2-colors what it reaches. When
        the graph is connected and has no odd cycle, the given list is
        extended by each vertex's side: 1 on vertex 0's side, else -1."""
        if self.n == 0:
            return True
        adj = self.adj
        side = [0] * self.n  # 0 until reached
        side[0] = 1
        reached = [0]
        walk = iter(reached)  # sees the vertices appended while it runs
        bipartite = True
        for u in walk:
            other = -side[u]
            for w in adj[u]:
                s = side[w]
                if not s:
                    side[w] = other
                    reached.append(w)
                elif s != other:
                    bipartite = False
            if not bipartite:
                break
        for u in walk:  # after an odd cycle, only reach the rest
            for w in adj[u]:
                if not side[w]:
                    side[w] = -side[u]
                    reached.append(w)
        if len(reached) != self.n:
            return False
        if bipartite and coloring is not None:
            coloring += side
        return True

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SimpleGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, m={self.m})"


class Multigraph:
    """Simple graph plus a positive multiplicity per edge.

    The degree of a vertex counts multiplicities:
    deg(v) = sum of mult[e] over edges e incident to v.
    """

    __slots__ = ("base", "mult")

    def __init__(self, base: SimpleGraph, mult: dict[Edge, int] | None = None):
        edges = base.edges
        mult = dict(mult) if mult else {}
        keys = tuple(mult)
        if mult:
            # the edges are canonical pairs only
            try:
                fits = min(mult.values()) >= 1 and (keys == edges or not mult.keys() - edges)
            except TypeError:  # a value that does not compare with 1
                fits = False
            if not fits:
                _check_each_multiplicity(base, mult)
        self.base = base
        # in edge order; edges without an explicit multiplicity default to 1
        self.mult: dict[Edge, int] = (
            mult if keys == edges
            else {e: mult.get(e, 1) for e in edges} if mult
            else dict.fromkeys(edges, 1)
        )

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self.base.edges

    def degree(self, v: int) -> int:
        return sum(self.mult[canon_edge(v, w)] for w in self.base.adj[v])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Multigraph)
            and self.base == other.base
            and self.mult == other.mult
        )

    def __hash__(self) -> int:
        return hash((self.base, tuple(sorted(self.mult.items()))))

    def __repr__(self) -> str:
        return f"Multigraph(n={self.n}, m={len(self.edges)})"


def double(g: SimpleGraph) -> Multigraph:
    """The 2-multigraph of g: every edge doubled.

    Raises ValueError when g has no edges (nothing to double).
    """
    if not g.edges:
        raise ValueError("nothing to double: graph has no edges")
    return Multigraph(g, dict.fromkeys(g.edges, 2))


def _check_each_multiplicity(base: SimpleGraph, mult: dict[Edge, int]) -> None:
    """Raise for the first entry, in the given order, that names a non-edge
    or a multiplicity below 1."""
    extra = mult.keys() - base.edges
    for e, mu in mult.items():
        if e in extra:
            raise ValueError(f"multiplicity given for non-edge {e}")
        if mu < 1:
            raise ValueError(f"multiplicity of {e} must be >= 1, got {mu}")


def is_locally_irregular(m: Multigraph) -> bool:
    """True iff adjacent vertices always have distinct degrees."""
    if len(set(m.mult.values())) == 1:  # one multiplicity scales all degrees alike
        adj = m.base.adj
        return all(len(adj[u]) != len(adj[v]) for u, v in m.edges)
    deg = [m.degree(v) for v in range(m.n)]
    return all(deg[u] != deg[v] for u, v in m.edges)


def sides_of(coloring: list[int]) -> tuple[list[int], list[int]]:
    """The sides of a coloring from SimpleGraph.is_connected: vertex 0's
    side, then the other, each sorted."""
    return (
        [v for v, s in enumerate(coloring) if s == 1],
        [v for v, s in enumerate(coloring) if s == -1],
    )


def bipartition_sides(g: SimpleGraph) -> tuple[list[int], list[int]] | None:
    """sides_of the connectivity walk's 2-coloring; None when g is
    disconnected, has an odd cycle or no vertex."""
    coloring: list[int] = []
    return sides_of(coloring) if g.is_connected(coloring) and coloring else None


# --- small graph builders -------------------------------------------------


def path_graph(n: int) -> SimpleGraph:
    """Path on n vertices 0-1-...-(n-1)."""
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    return SimpleGraph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(length: int) -> SimpleGraph:
    """Cycle with `length` vertices (= `length` edges)."""
    if length < 3:
        raise ValueError("cycle needs length >= 3")
    return SimpleGraph(length, [(i, (i + 1) % length) for i in range(length)])


def wheel_graph(n: int) -> SimpleGraph:
    """Wheel of order n: rim cycle 0..n-2 plus hub n-1 joined to the rim."""
    if n < 4:
        raise ValueError("wheel needs order >= 4")
    rim = n - 1
    edges = [(i, (i + 1) % rim) for i in range(rim)]
    edges += [(i, rim) for i in range(rim)]
    return SimpleGraph(n, edges)


def complete_graph(n: int) -> SimpleGraph:
    if n < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    return SimpleGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_multipartite_graph(sizes: list[int]) -> SimpleGraph:
    """Complete multipartite graph; part i occupies a contiguous id block."""
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError("need >= 2 parts, all non-empty")
    bounds = [0]
    for s in sizes:
        bounds.append(bounds[-1] + s)
    n = bounds[-1]
    edges = []
    for a in range(len(sizes)):
        for b in range(a + 1, len(sizes)):
            for u in range(bounds[a], bounds[a + 1]):
                for v in range(bounds[b], bounds[b + 1]):
                    edges.append((u, v))
    return SimpleGraph(n, edges)
