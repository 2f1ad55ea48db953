"""Structural graph classification and recognition of the non-decomposable
families.

The triangle family is built recursively: start from a triangle; repeatedly
pick a degree-2 vertex lying on a triangle and glue onto it either a pendant
path of even length, or a path of odd length whose far end lands on a fresh
triangle. Members are exactly the connected graphs whose blocks are
vertex-disjoint triangles and bridges, where every triangle-to-triangle
path is odd, every pendant path is even, and all branching happens at
triangle vertices.

The wider family adds odd-length paths and odd cycles; together these are
exactly the connected graphs with no locally irregular decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .graphs import SimpleGraph, sides_of


class ClassKind(Enum):
    PATH = "path"
    CYCLE = "cycle"
    WHEEL = "wheel"
    COMPLETE = "complete"
    COMPLETE_MULTIPARTITE = "complete-multipartite"
    T_FAMILY = "t-family"
    ODD_PATH = "odd-path"
    ODD_CYCLE = "odd-cycle"
    OTHER = "other"


@dataclass
class Classification:
    """Structural tag, plus what its recognizer found (for the colorers)."""

    kind: ClassKind
    part_sizes: tuple[int, ...] | None = None  # only for complete multipartite
    # path or cycle vertex order; for a wheel, the rim order
    order: list[int] | None = field(default=None, compare=False, repr=False)
    hub: int | None = field(default=None, compare=False, repr=False)  # wheel only
    parts: list[list[int]] | None = field(default=None, compare=False, repr=False)
    # OTHER only: bipartition_sides(g), or None after an odd cycle
    sides: tuple[list[int], list[int]] | None = field(default=None, compare=False, repr=False)


@dataclass
class Attachment:
    """One construction step: a path glued onto `host`, optionally ending in
    a new triangle whose remaining two vertices are `triangle`."""

    host: int
    path: list[int]  # host, interior..., far end
    triangle: tuple[int, int] | None = None


@dataclass
class TWitness:
    """Replayable construction of a triangle-family member."""

    root: tuple[int, int, int]
    steps: list[Attachment] = field(default_factory=list)


@dataclass
class TPrimeResult:
    member: bool
    kind: ClassKind | None = None  # ODD_PATH, ODD_CYCLE or T_FAMILY
    witness: TWitness | None = None


def _walk(adj, start: int, skip: int = -1) -> list[int]:
    """Vertices from start, each step to the first neighbour that is neither
    the previous vertex nor skip, until there is none or the walk is back at
    start: along degree-2 vertices, the chain, smallest neighbour first."""
    order = [start]
    prev = -1
    cur = start
    while True:
        for nxt in adj[cur]:
            if nxt != prev and nxt != skip:
                break
        else:
            return order
        if nxt == start:
            return order
        prev = cur
        cur = nxt
        order.append(cur)


def path_order(g: SimpleGraph) -> list[int] | None:
    """Vertex order along g when g is a path, else None: the walk from its
    first end, which misses vertices when cycles sit elsewhere."""
    if g.n == 1:
        return [0] if g.m == 0 else None
    if g.m != g.n - 1:
        return None
    degrees = list(map(len, g.adj))
    if degrees.count(1) != 2 or max(degrees) > 2:
        return None
    order = _walk(g.adj, degrees.index(1))
    return order if len(order) == g.n else None


def cycle_order(g: SimpleGraph) -> list[int] | None:
    """Vertex order around g when g is a single cycle, else None: the walk
    from vertex 0, which misses vertices when there are several cycles."""
    # a simple graph with m = n >= 1 has n >= 3; at n = 0 the walk would
    # have no start
    if g.m != g.n or g.n == 0:
        return None
    if any(len(ns) != 2 for ns in g.adj):
        return None
    order = _walk(g.adj, 0)
    return order if len(order) == g.n else None


def wheel_order(g: SimpleGraph) -> tuple[int, list[int]] | None:
    """(hub, rim vertex order) when g is a wheel of order >= 5, else None.

    The rim order is the walk that skips the hub from the smallest rim
    vertex, smaller rim neighbor first, as cycle_order does on the rim alone.
    Order-4 wheels coincide with the complete graph and are classified there.
    """
    # at n = 4 this is K4, whose rim degree 3 is also the hub's, so the
    # degree counts below turn it away; at n = 1 the walk would have no start
    if g.m != 2 * (g.n - 1) or g.n == 1:
        return None
    degrees = list(map(len, g.adj))
    if degrees.count(g.n - 1) != 1 or degrees.count(3) != g.n - 1:
        return None
    hub = degrees.index(g.n - 1)
    order = _walk(g.adj, 1 if hub == 0 else 0, hub)
    return (hub, order) if len(order) == g.n - 1 else None


def multipartite_parts(g: SimpleGraph) -> list[list[int]] | None:
    """Parts of g when complete multipartite (>= 2 parts), else None.

    Vertices are grouped by neighbourhood. Members of a group are pairwise
    non-adjacent, as none is its own neighbour, so a group whose size plus
    its members' degree is n has everything outside it as neighbourhood.
    g is complete multipartite iff every group is such a part and there are
    at least two: the parts of a complete multipartite graph are exactly its
    neighbourhood groups. Parts come by smallest vertex, each sorted.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for v, ns in enumerate(g.adj):
        groups.setdefault(ns, []).append(v)
    n = g.n
    if len(groups) < 2 or any(len(p) + len(ns) != n for ns, p in groups.items()):
        return None
    return list(groups.values())


def triangles_of(g: SimpleGraph) -> list[tuple[int, int, int]]:
    nbrs = [set(ns) for ns in g.adj]
    out = []
    for u, v in g.edges:
        for w in g.adj[u]:
            if w > v and w in nbrs[v]:
                out.append((u, v, w))
    return out


def t_family_witness(g: SimpleGraph) -> TWitness | None:
    """Construction witness when g belongs to the triangle family, else None.

    A member has m = n - 1 + #triangles >= n and every degree in 1..3, an
    O(n) pretest that turns most other graphs away before the scan.
    """
    # m >= n and m > 0 leave n >= 3 in a simple graph
    if not g.m or g.m < g.n or max(map(len, g.adj)) > 3 or min(map(len, g.adj)) < 1:
        return None
    tris = triangles_of(g)
    tri_of_vertex: dict[int, tuple[int, int, int]] = {}
    for tri in tris:
        for v in tri:
            if v in tri_of_vertex:
                return None  # triangles must be vertex-disjoint
            tri_of_vertex[v] = tri
    # cyclomatic count: each triangle is the only cycle it contributes
    # (with no triangle, m >= n fails it)
    if g.m != g.n - 1 + len(tris):
        return None
    # degrees are 1..3, and a triangle vertex has two triangle edges
    if any(len(ns) == 3 and v not in tri_of_vertex for v, ns in enumerate(g.adj)):
        return None
    # bridges: the edges off the triangles, in adj order (a vertex off every
    # triangle stands for itself)
    bridge_adj = [
        [w for w in ns if tri_of_vertex.get(w, w) != tri_of_vertex.get(v, v)]
        for v, ns in enumerate(g.adj)
    ]
    witness = TWitness(root=tris[0])
    placed = set(tris[0])
    queue = [tris[0]]
    while queue:
        tri = queue.pop(0)
        for v in sorted(tri):
            for first in bridge_adj[v]:
                if first in placed:
                    continue
                # triangle vertices have at most one bridge, the others at
                # most two: the walk is v's bridge path to its end
                path = _walk(bridge_adj, v)
                end = path[-1]
                if end in tri_of_vertex:
                    if len(path) % 2 != 0:
                        return None  # triangle-to-triangle path must be odd
                    # new_tri is unseen: by the count, a connected g has no
                    # cycle but its triangles, so a path out of the placed
                    # part never comes back (a disconnected g fails below)
                    new_tri = tri_of_vertex[end]
                    others = tuple(sorted(set(new_tri) - {end}))
                    witness.steps.append(Attachment(v, path, others))
                    placed.update(path)
                    placed.update(new_tri)
                    queue.append(new_tri)
                else:
                    if len(path) % 2 != 1:
                        return None  # pendant path must have even length
                    witness.steps.append(Attachment(v, path))
                    placed.update(path)
    if len(placed) != g.n:
        # a triangle never reached leaves its vertices unplaced, and placed
        # covers only the root's component when g is disconnected
        return None
    return witness


def recognize_t_prime(g: SimpleGraph) -> TPrimeResult:
    """Membership in the family of graphs with no locally irregular
    decomposition: odd paths, odd cycles, and the triangle family."""
    # an even path or cycle fails every test: it has m < n or no triangle
    if g.m % 2 == 1 and path_order(g) is not None:
        return TPrimeResult(True, ClassKind.ODD_PATH)
    if g.n % 2 == 1 and cycle_order(g) is not None:
        return TPrimeResult(True, ClassKind.ODD_CYCLE)
    witness = t_family_witness(g)
    if witness is not None:
        return TPrimeResult(True, ClassKind.T_FAMILY, witness)
    return TPrimeResult(False)


def classify(g: SimpleGraph) -> Classification:
    """Most specific structural tag, for colorer dispatch, carrying the path
    or cycle order, the wheel hub and rim order, the multipartite parts, or
    for OTHER the bipartition sides.

    One walk tests connectivity and 2-colors g. A graph with no odd cycle
    has no triangle, so only the others are tested for the triangle family.
    """
    side: list[int] = []
    if not g.is_connected(side):
        raise ValueError("classification requires a connected graph")
    order = path_order(g)
    if order is not None:
        return Classification(ClassKind.PATH, order=order)
    order = cycle_order(g)
    if order is not None:
        return Classification(ClassKind.CYCLE, order=order)
    if g.m == g.n * (g.n - 1) // 2:
        return Classification(ClassKind.COMPLETE)
    wheel = wheel_order(g)
    if wheel is not None:
        return Classification(ClassKind.WHEEL, order=wheel[1], hub=wheel[0])
    parts = multipartite_parts(g)
    if parts is not None:
        return Classification(
            ClassKind.COMPLETE_MULTIPARTITE,
            tuple(sorted(len(p) for p in parts)),
            parts=parts,
        )
    if not side:
        if t_family_witness(g) is not None:
            return Classification(ClassKind.T_FAMILY)
        return Classification(ClassKind.OTHER)
    return Classification(ClassKind.OTHER, sides=sides_of(side))
