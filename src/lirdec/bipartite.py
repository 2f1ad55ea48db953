"""Two-coloring of every doubled connected bipartite graph (except K2).

Strategy: when a side has even size, a parity path-system makes that side
odd-degree in both colors and the other side even, which separates every
edge's endpoints. When both sides are odd, a twin split S, T = N(S) peels
off a complete-bipartite corner; the residue X' + Y' gets the path-system
treatment within itself and the corner is colored by case analysis on the
parities of |S| and the relation between |S| and |T|.

"Exchange colors along a path" is realized as the mod-2 symmetric difference
of spanning-tree paths (a T-join): its edges become red-blue multiedges, so
each endpoint's red degree moves by exactly one per incident join edge.
Sides are sorted vertex lists, vertex 0's side first, split from the
2-coloring of the connectivity walk `SimpleGraph.is_connected`: `classify`
carries them here from its walk, and without them the colorer and the twin
split each take that one walk themselves (`_walk_sides`).
"""

from __future__ import annotations

from typing import Iterable

from .colorers import multipartite_states
from .decomposition import BB, RB, RR, Decomposition
from .graphs import Edge, SimpleGraph, canon_edge, double, sides_of


def _spanning_tree(g: SimpleGraph, keep: list[bool], root: int) -> tuple[list[int], int]:
    """BFS tree from root over the vertices marked in keep: each reached
    vertex's parent (the root is its own, -1 elsewhere) and how many were
    reached."""
    parent = [-1] * g.n
    parent[root] = root
    queue = [root]
    for u in queue:
        for w in g.adj[u]:
            if keep[w] and parent[w] == -1:
                parent[w] = u
                queue.append(w)
    return parent, len(queue)


def _walk_sides(g: SimpleGraph, disconnected: str, odd: str) -> tuple[list[int], list[int]]:
    """bipartition_sides(g) from one connectivity walk, raising ValueError
    with the message disconnected or odd when there are none."""
    coloring: list[int] = []
    if not g.is_connected(coloring):
        raise ValueError(disconnected)
    if not coloring:
        raise ValueError(odd)
    return sides_of(coloring)


def path_system(
    g: SimpleGraph, terminals: Iterable[int], region: Iterable[int] | None = None
) -> frozenset[Edge]:
    """Edge set whose degree is odd exactly at the terminals: the mod-2 sum
    of each terminal's path to the root of a BFS tree rooted at the smallest
    terminal. The tree spans region (all of g when None), which must induce
    a connected subgraph holding the terminals; only parity matters, so any
    spanning tree gives a valid result.
    """
    terms = sorted(terminals)
    inside = list(range(g.n)) if region is None else sorted(set(region))
    keep = [False] * g.n
    for v in inside:
        keep[v] = True
    if any(v < 0 or v >= g.n or not keep[v] for v in terms):
        raise ValueError("terminal outside the graph")
    if len(terms) % 2 != 0:
        raise ValueError("terminal set must have even size")
    if not inside:
        return frozenset()
    parent, reached = _spanning_tree(g, keep, (terms or inside)[0])
    if reached != len(inside):
        raise ValueError("path system requires a connected graph")
    flips: set[Edge] = set()
    for v in terms:
        while parent[v] != v:
            flips ^= {canon_edge(v, parent[v])}
            v = parent[v]
    return frozenset(flips)


def find_twin_split(
    g: SimpleGraph, sides: tuple[list[int], list[int]] | None = None
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Twin set S with connected residue, minimizing |S| + |N(S)|.

    Returns (S, T, X', Y') as sorted lists: T = N(S), X' the rest of S's
    side and Y' the rest of T's. The maximal twin classes (vertices sharing
    an open neighborhood) are tried in ascending order of (|S| + |N(S)|,
    sorted S), and the first valid split is returned; keys are unique, so
    this is the minimum. A split is valid when its residue X' + Y' is
    connected and, if X' is not empty, every vertex of T has a neighbour
    in it. sides, when given, must be bipartition_sides(g), and is used as
    is; otherwise one walk tests connectivity and finds them.

    Some class is always valid. Take a vertex v at the largest BFS distance
    d from a root r, with N(v) minimal by inclusion among the vertices at
    distance d, and S its class. Every vertex at distance d outside S has a
    neighbour outside N(v), at distance d - 1; a twin of v at distance
    below d can only be r, when d = 2, and then S and N(v) = N(r) cover
    everything, as they do when d <= 1. Otherwise the vertices at distance
    below d - 1 stay, and they carry a BFS path from each vertex of the
    residue and of N(v).

    Y' is empty when X' is: a vertex of Y' has all its neighbours in S + X'
    but is not in T = N(S). A valid split with X' but no Y' has no edge in
    its residue, so X' = {x}; x is no twin of S, so N(x) is smaller than
    T, and {x}, with the residue S + T - N(x), is a valid split with a
    smaller score. So X' and Y' of the split returned are both empty or
    both not.

    The first class with a connected residue is valid, so only that is
    tested. Were a vertex u of T without a neighbour in a non-empty X', then
    N(u) = S, and the class C of u, inside T, is valid with a smaller
    score: its T is S, whose members all reach T - C, and its residue adds
    to the connected X' + Y' the rest of T, each vertex of which has a
    neighbour in X'.
    """
    if sides is None:
        sides = _walk_sides(g, "twin split requires a connected graph", "twin split not found")
    side_x, side_y = sides
    on_x = [False] * g.n
    for v in side_x:
        on_x[v] = True
    groups: dict[tuple[int, ...], list[int]] = {}
    for v in range(g.n):
        groups.setdefault(g.adj[v], []).append(v)
    # each class S is keyed by its T = N(S)
    for t, s in sorted(groups.items(), key=lambda ts: (len(ts[1]) + len(ts[0]), ts[1])):
        s_on_x = on_x[s[0]]  # twins share a neighbour, hence a side
        keep = [True] * g.n
        for v in s:
            keep[v] = False
        for v in t:
            keep[v] = False
        xp = [v for v in (side_x if s_on_x else side_y) if keep[v]]
        yp = [v for v in (side_y if s_on_x else side_x) if keep[v]]
        rest = len(xp) + len(yp)
        if rest and _spanning_tree(g, keep, keep.index(True))[1] != rest:
            continue
        return s, list(t), xp, yp


def color_double_bipartite(
    g: SimpleGraph, sides: tuple[list[int], list[int]] | None = None
) -> Decomposition:
    """Two-coloring of the doubled connected bipartite graph g (not K2).

    sides, when given, must be bipartition_sides(g), as classify carries
    it for a bipartite OTHER graph; then neither this colorer nor the twin
    split walks g again. Otherwise one walk tests connectivity and finds
    them.
    """
    if g.n <= 2:
        raise ValueError("no locally irregular coloring exists for a doubled K2")
    if sides is None:
        sides = _walk_sides(
            g, "bipartition requires a connected graph", "not bipartite: odd cycle found"
        )
    host = double(g)
    x, y = sides
    if len(x) % 2 == 0 or len(y) % 2 == 0:
        # a side of even size: make it odd/odd via the path system
        join = path_system(g, x if len(x) % 2 == 0 else y)
        return Decomposition(host, 2, [RB if e in join else BB for e in g.edges])

    s_list, t_list, xp, yp = find_twin_split(g, sides)
    if not xp:
        # complete bipartite: the two-part colorer on the actual labels (a
        # vertex of Y' has a neighbour off S, in X')
        return Decomposition(host, 2, multipartite_states(g, [s_list, t_list]))

    xp_set = set(xp)
    s = len(s_list)
    t = len(t_list)
    if s % 2 == 1:
        # Case 1: residue path-system over all of X'
        terminals = xp
    else:
        # Case 2: one red-blue hook x0-y0-z0 moves a unit of parity across;
        # every vertex of T has a neighbour in X' (see find_twin_split)
        hooks = [(y0, min(w for w in g.adj[y0] if w in xp_set)) for y0 in t_list]
        # prefer a y0 with a second residue neighbor: no repair needed then
        rich = [h for h in hooks if sum(1 for w in g.adj[h[0]] if w in xp_set) >= 2]
        y0, z0 = rich[0] if rich else hooks[0]
        terminals = [v for v in xp if v != z0]
    # the doubled residue: join edges red-blue, every other edge blue, which
    # paints the corner's S-T; T-X' turns red when |S| != |T| (Cases 1, 2a)
    join = path_system(g, terminals, xp_set.union(yp))
    assign = {e: RB if e in join else BB for e in g.edges}

    def paint(us, vs, state):
        for u in us:
            for v in vs:
                if g.has_edge(u, v):
                    assign[canon_edge(u, v)] = state

    if s != t:
        paint(t_list, xp, RR)
    if s % 2 == 0:  # Case 2: the hook overrides the corner
        assign[canon_edge(s_list[0], y0)] = RB
        assign[canon_edge(y0, z0)] = RB
        if s == t and not rich:
            # Subcase 2b: every T vertex holds exactly one residue multiedge;
            # repaint the S edges of one T vertex other than y0 red
            paint([w for w in t_list if w != y0][:1], s_list, RR)
    return Decomposition(host, 2, list(assign.values()))
