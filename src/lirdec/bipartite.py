"""Two-coloring of every doubled connected bipartite graph (except K2).

Strategy: when a side has even size, a parity path-system makes that side
odd-degree in both colors and the other side even, which separates every
edge's endpoints. When both sides are odd, a twin split S, T = N(S) peels
off a complete-bipartite corner; the residue gets the path-system treatment
and the corner is colored by case analysis on the parities of |S| and the
relation between |S| and |T|.

"Exchange colors along a path" is realized as the mod-2 symmetric difference
of spanning-tree paths (a T-join): its edges become red-blue multiedges, so
each endpoint's red degree moves by exactly one per incident join edge.
"""

from __future__ import annotations

from dataclasses import dataclass

from .colorers import multipartite_states
from .decomposition import BB, RB, RR, Decomposition
from .graphs import Edge, SimpleGraph, bipartition_sides, canon_edge, double


@dataclass
class Bipartition:
    x: frozenset[int]
    y: frozenset[int]


@dataclass
class ParityEdgeSet:
    """Edge set whose induced degree is odd exactly at the terminals."""

    edges: frozenset[Edge]


@dataclass
class TwinSplit:
    s: frozenset[int]
    t: frozenset[int]
    xp: frozenset[int]  # X without S
    yp: frozenset[int]  # Y without T


def bipartition(g: SimpleGraph) -> Bipartition:
    """BFS 2-coloring; X is the class of vertex 0."""
    if not g.is_connected():
        raise ValueError("bipartition requires a connected graph")
    sides = bipartition_sides(g)
    if sides is None:
        raise ValueError("not bipartite: odd cycle found")
    return Bipartition(frozenset(sides[0]), frozenset(sides[1]))


def path_system(g: SimpleGraph, terminals: set[int] | frozenset[int]) -> ParityEdgeSet:
    """Symmetric difference of spanning-tree paths pairing up the terminals.

    Terminals are paired ascending; only parity matters, so any pairing and
    any spanning tree give a valid result.
    """
    terms = sorted(terminals)
    if any(v < 0 or v >= g.n for v in terms):
        raise ValueError("terminal outside the graph")
    if len(terms) % 2 != 0:
        raise ValueError("terminal set must have even size")
    if not g.is_connected():
        raise ValueError("path system requires a connected graph")
    if not terms:
        return ParityEdgeSet(frozenset())
    # BFS spanning tree rooted at the first terminal
    root = terms[0]
    parent = [-1] * g.n
    parent[root] = root
    queue = [root]
    for u in queue:
        for w in g.adj[u]:
            if parent[w] == -1:
                parent[w] = u
                queue.append(w)
    flips: set[Edge] = set()

    def flip_to_root(v: int) -> None:
        while parent[v] != v:
            e = canon_edge(v, parent[v])
            flips.symmetric_difference_update({e})
            v = parent[v]

    for a, b in zip(terms[::2], terms[1::2]):
        flip_to_root(a)
        flip_to_root(b)
    return ParityEdgeSet(frozenset(flips))


def _twin_classes(g: SimpleGraph) -> list[list[int]]:
    """Maximal classes of vertices sharing an open neighborhood."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for v in range(g.n):
        groups.setdefault(g.adj[v], []).append(v)
    return [sorted(vs) for vs in groups.values()]


def _connected_within(g: SimpleGraph, keep: list[bool], start: int, size: int) -> bool:
    """Whether the `size` vertices marked in keep induce a connected subgraph
    of g; start is one of them."""
    seen = [False] * g.n
    seen[start] = True
    stack = [start]
    count = 1
    while stack:
        u = stack.pop()
        for w in g.adj[u]:
            if keep[w] and not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == size


def find_twin_split(g: SimpleGraph, bip: Bipartition | None = None) -> TwinSplit:
    """Twin set S with connected residue, minimizing |S| + |N(S)|.

    Maximal twin classes are tried first; only when none works do subsets
    leaving a single leftover twin enter the pool (a bigger leftover would sit
    isolated in the residue). Each pool is tried in ascending order of
    (|S| + |N(S)|, sorted S), and the first valid split is returned; keys
    within a pool are unique, so this is the pool's minimum. Sides are
    swapped as needed so S lives in X. bip, when given, must be g's
    bipartition; otherwise it is computed once here.
    """
    if not g.is_connected():
        raise ValueError("twin split requires a connected graph")
    if bip is None:
        sides = bipartition_sides(g)
        if sides is None:
            raise ValueError("twin split not found")
        side_x, side_y = sides
    else:
        side_x, side_y = bip.x, bip.y
    on_x = [False] * g.n
    for v in side_x:
        on_x[v] = True
    classes = _twin_classes(g)
    for pool in (
        classes,
        [c[:i] + c[i + 1 :] for c in classes if len(c) >= 2 for i in range(len(c))],
    ):
        # twins share N(S), so |N(S)| is the degree of any member
        pool.sort(key=lambda s: (len(s) + len(g.adj[s[0]]), s))
        for s in pool:
            s_on_x = on_x[s[0]]
            if any(on_x[v] != s_on_x for v in s):
                continue  # twins straddling sides cannot happen in bipartite graphs
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
            if rest and not _connected_within(g, keep, (xp or yp)[0], rest):
                continue
            return TwinSplit(frozenset(s), frozenset(t), frozenset(xp), frozenset(yp))
    raise ValueError("twin split not found")


def _region_states(
    g: SimpleGraph, region: set[int], terminals: set[int]
) -> dict[Edge, tuple[int, int]]:
    """Color the induced doubled region: join edges red-blue, rest blue."""
    sub, ids = g.induced_subgraph(region)
    back = {i: v for i, v in enumerate(ids)}
    fwd = {v: i for i, v in enumerate(ids)}
    join = path_system(sub, {fwd[v] for v in terminals})
    states = {}
    for u, v in sub.edges:
        e = canon_edge(back[u], back[v])
        states[e] = RB if (u, v) in join.edges else BB
    return states


def color_double_bipartite(g: SimpleGraph, bip: Bipartition | None = None) -> Decomposition:
    """Two-coloring of the doubled connected bipartite graph g (not K2).

    bip, when given, must be g's bipartition; otherwise it is computed here.
    """
    if g.n <= 2:
        raise ValueError("no locally irregular coloring exists for a doubled K2")
    if bip is None:
        bip = bipartition(g)
    host = double(g)
    x, y = sorted(bip.x), sorted(bip.y)
    if len(x) % 2 == 0 or len(y) % 2 == 0:
        # a side of even size: make it odd/odd via the path system
        side = x if len(x) % 2 == 0 else y
        join = path_system(g, set(side))
        assign = {e: RB if e in join.edges else BB for e in g.edges}
        return Decomposition(host, 2, assign)

    split = find_twin_split(g, bip)
    if not split.xp and not split.yp:
        # complete bipartite: the two-part colorer on the actual labels
        return Decomposition(host, 2, multipartite_states([sorted(split.s), sorted(split.t)]))

    s_list = sorted(split.s)
    t_list = sorted(split.t)
    xp = set(split.xp)
    yp = set(split.yp)
    region = xp | yp
    s = len(s_list)
    t = len(t_list)
    assign: dict[Edge, tuple[int, int]] = {}

    def paint(us, vs, state):
        for u in us:
            for v in vs:
                e = canon_edge(u, v)
                if g.has_edge(u, v):
                    assign[e] = state

    if s % 2 == 1:
        # Case 1: residue path-system over all of X', corner mostly blue
        assign.update(_region_states(g, region, xp))
        paint(s_list, t_list, BB)
        paint(t_list, xp, RR if s != t else BB)
    else:
        # Case 2: one red-blue hook x0-y0-z0 moves a unit of parity across
        x0 = s_list[0]
        xp_set = xp
        hooks = [
            (y0, min(w for w in g.adj[y0] if w in xp_set))
            for y0 in t_list
            if any(w in xp_set for w in g.adj[y0])
        ]
        # prefer a y0 with a second residue neighbor: no repair needed then
        rich = [h for h in hooks if sum(1 for w in g.adj[h[0]] if w in xp_set) >= 2]
        y0, z0 = rich[0] if rich else hooks[0]
        assign.update(_region_states(g, region, xp - {z0}))
        paint(s_list, t_list, BB)
        assign[canon_edge(x0, y0)] = RB
        assign[canon_edge(y0, z0)] = RB
        others_t = [w for w in t_list if w != y0]
        if s != t:
            # Subcase 2a: corner-to-residue all red (except the hook edge)
            paint(others_t, xp, RR)
            for w in g.adj[y0]:
                if w in xp_set and w != z0:
                    assign[canon_edge(y0, w)] = RR
        else:
            # Subcase 2b: everything else blue; when every T vertex holds
            # exactly one residue multiedge, repaint one T vertex's S edges red
            paint(others_t, xp, BB)
            for w in g.adj[y0]:
                if w in xp_set and w != z0:
                    assign[canon_edge(y0, w)] = BB
            if not rich:
                yt = others_t[0]
                paint([yt], s_list, RR)

    missing = [e for e in g.edges if e not in assign]
    if missing:
        raise AssertionError(f"edges left uncolored: {missing}")
    return Decomposition(host, 2, assign)
