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
    parent, reached = _spanning_tree(g, keep, terms[0] if terms else inside[0])
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
    side and Y' the rest of T's. Maximal twin classes (vertices sharing an
    open neighborhood) are tried first; only when none works do subsets
    leaving a single leftover twin enter the pool (a bigger leftover would
    sit isolated in the residue). Each pool is tried in ascending order of
    (|S| + |N(S)|, sorted S), and the first valid split is returned; keys
    within a pool are unique, so this is the pool's minimum. sides, when
    given, must be bipartition_sides(g), and is used as is; otherwise one
    walk tests connectivity and finds them.
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
    classes = list(groups.values())
    for pool in (
        classes,
        [c[:i] + c[i + 1 :] for c in classes if len(c) >= 2 for i in range(len(c))],
    ):
        # twins share N(S), so |N(S)| is the degree of any member
        pool.sort(key=lambda s: (len(s) + len(g.adj[s[0]]), s))
        for s in pool:
            s_on_x = on_x[s[0]]  # twins share a neighbour, hence a side
            t = g.adj[s[0]]
            keep = [True] * g.n
            for v in s:
                keep[v] = False
            for v in t:
                keep[v] = False
            xp = [v for v in (side_x if s_on_x else side_y) if keep[v]]
            if xp and not all(any(keep[w] for w in g.adj[v]) for v in t):
                continue  # T member with no neighbor in the residue
            yp = [v for v in (side_y if s_on_x else side_x) if keep[v]]
            rest = len(xp) + len(yp)
            if rest and _spanning_tree(g, keep, (xp or yp)[0])[1] != rest:
                continue
            return s, list(t), xp, yp
    raise ValueError("twin split not found")


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
    if not xp and not yp:
        # complete bipartite: the two-part colorer on the actual labels
        return Decomposition(host, 2, multipartite_states(g, [s_list, t_list]))

    xp_set = set(xp)
    region = xp_set.union(yp)
    s = len(s_list)
    t = len(t_list)
    assign: dict[Edge, tuple[int, int]] = {}

    def paint_region(terminals):
        # the doubled residue: join edges red-blue, the rest blue
        join = path_system(g, terminals, region)
        for e in g.edges:
            if e[0] in region and e[1] in region:
                assign[e] = RB if e in join else BB

    def paint(us, vs, state):
        for u in us:
            for v in vs:
                e = canon_edge(u, v)
                if g.has_edge(u, v):
                    assign[e] = state

    if s % 2 == 1:
        # Case 1: residue path-system over all of X'
        paint_region(xp)
    else:
        # Case 2: one red-blue hook x0-y0-z0 moves a unit of parity across
        hooks = [
            (y0, min(w for w in g.adj[y0] if w in xp_set))
            for y0 in t_list
            if any(w in xp_set for w in g.adj[y0])
        ]
        # prefer a y0 with a second residue neighbor: no repair needed then
        rich = [h for h in hooks if sum(1 for w in g.adj[h[0]] if w in xp_set) >= 2]
        y0, z0 = rich[0] if rich else hooks[0]
        paint_region(v for v in xp if v != z0)
    # the corner: S-T blue, T-X' red when |S| != |T| (Cases 1 and 2a), else
    # blue; it shares no edge with the residue
    paint(s_list, t_list, BB)
    paint(t_list, xp, RR if s != t else BB)
    if s % 2 == 0:  # Case 2: the hook overrides the corner
        assign[canon_edge(s_list[0], y0)] = RB
        assign[canon_edge(y0, z0)] = RB
        if s == t and not rich:
            # Subcase 2b: every T vertex holds exactly one residue multiedge;
            # repaint the S edges of one T vertex other than y0 red
            paint([w for w in t_list if w != y0][:1], s_list, RR)

    states = list(map(assign.get, g.edges))
    if None in states:
        missing = [e for e, state in zip(g.edges, states) if state is None]
        raise AssertionError(f"edges left uncolored: {missing}")
    return Decomposition(host, 2, states)
