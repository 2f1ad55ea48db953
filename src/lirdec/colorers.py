"""Closed-form two-colorings of doubled graphs for standard classes, and the
recursive three-coloring of the triangle family.

Doubled-edge states: RR both red, RB one red one blue, BB both blue. Each
class has one construction, a function from a vertex order to multiedge
states: path_assign for paths, ring_assign for cycles and wheels.
color_double_auto runs it on the order classify found, and
color_double_path/cycle/wheel on canonical labels. The even-length path
pattern is BB,BB,RR,RR repeating; odd paths prepend BB,RB,RR. Cycles of
length 3..7 take the literal CYCLE_BASE table; longer cycles splice
BB,BB,RR,RR blocks in right after the base's two adjacent all-red
multiedges. A wheel is its rim cycle with every spoke all red.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from .classify import Classification, ClassKind, TWitness, classify, t_family_witness
from .decomposition import BB, RB, RR, Decomposition, color_conflicts
from .graphs import (
    Edge,
    SimpleGraph,
    bipartition_sides,
    canon_edge,
    complete_multipartite_graph,
    cycle_graph,
    double,
    path_graph,
    wheel_graph,
)
from .solver import _schedule

State = tuple[int, int]

# Doubled cycles of length 3..7. From length 4 on, the first two multiedges
# are the all-red splice anchor. The test oracle re-derives each by
# exhaustive search.
CYCLE_BASE: dict[int, tuple[State, ...]] = {
    3: (RR, RB, BB),
    4: (RR, RR, RB, RB),
    5: (RR, RR, BB, RB, RB),
    6: (RR, RR, BB, BB, RB, RB),
    7: (RR, RR, RB, BB, RR, RB, RB),
}


def path_states(edge_count: int) -> list[State]:
    """State sequence along a doubled path with the given edge count."""
    if edge_count < 2:
        raise ValueError("no locally irregular coloring exists for a doubled K2")
    states: list[State] = []
    rest = edge_count
    if edge_count % 2 == 1:
        states = [BB, RB, RR]
        rest -= 3
    block = (BB, BB, RR, RR)
    states += [block[i % 4] for i in range(rest)]
    return states


def cycle_states(length: int) -> list[State]:
    """State sequence around a doubled cycle of the given length."""
    if length < 3:
        raise ValueError("cycle needs length >= 3")
    base = CYCLE_BASE[length if length <= 7 else 4 + (length - 4) % 4]
    blocks = (length - len(base)) // 4
    return list(base[:2]) + [BB, BB, RR, RR] * blocks + list(base[2:])


def path_assign(order: Sequence[int]) -> dict[Edge, State]:
    """States of the doubled path visiting `order`, keyed by its edges."""
    states = path_states(len(order) - 1)
    return {canon_edge(u, v): s for u, v, s in zip(order, order[1:], states)}


def ring_assign(order: Sequence[int], hub: int | None = None) -> dict[Edge, State]:
    """States of the doubled cycle around `order`; with a hub, of the doubled
    wheel on that rim, every spoke all red. For a rim of four or more the
    hub's red degree 2 * len(order) dominates every rim vertex."""
    length = len(order)
    states = cycle_states(length)
    assign = {
        canon_edge(order[i], order[(i + 1) % length]): s for i, s in enumerate(states)
    }
    if hub is not None:
        for v in order:
            assign[canon_edge(v, hub)] = RR
    return assign


def color_double_path(n: int) -> Decomposition:
    """Two-coloring of the doubled path on n >= 3 vertices."""
    assign = path_assign(range(n))
    return Decomposition(double(path_graph(n)), 2, assign)


def color_double_cycle(length: int) -> Decomposition:
    """Two-coloring of the doubled cycle with the given edge count."""
    return Decomposition(double(cycle_graph(length)), 2, ring_assign(range(length)))


def color_double_wheel(n: int) -> Decomposition:
    """Two-coloring of the doubled wheel of order n >= 4: rim 0..n-2, hub n-1."""
    return Decomposition(double(wheel_graph(n)), 2, ring_assign(range(n - 1), n - 1))


def color_double_complete(n: int) -> Decomposition:
    """Two-coloring of the doubled complete graph on n >= 3 vertices.

    Seeds the doubled triangle on 0,1,2; each later vertex colors all its
    multiedges to earlier vertices one color, alternating blue, red, blue...
    """
    if n < 3:
        raise ValueError("complete graph coloring needs n >= 3")
    g = SimpleGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    host = double(g)
    assign = {(0, 1): RR, (1, 2): RB, (0, 2): BB}
    for v in range(3, n):
        state = BB if (v - 3) % 2 == 0 else RR
        for u in range(v):
            assign[(u, v)] = state
    return Decomposition(host, 2, assign)


def _textbook_matrix(sizes: list[int], phase: int) -> dict[tuple[int, int], State]:
    """Textbook part matrix over ascending part sizes, keyed by part-index
    pairs (i, j), i < j. The three smallest parts take the three-part
    pattern for their sizes (all distinct, two equal, all equal); every later
    part paints all its multiedges to earlier parts one color, alternating
    from blue (phase 0) or red (phase 1)."""
    a, b, c = sizes[:3]
    if a == b == c:
        st = {(0, 1): RB, (0, 2): RR, (1, 2): BB}
    elif a == b:
        st = {(0, 1): RR, (0, 2): BB, (1, 2): RR}
    elif b == c:
        st = {(0, 1): BB, (0, 2): RR, (1, 2): RR}
    else:
        st = {(0, 1): RR, (0, 2): RR, (1, 2): RR}
    for j in range(3, len(sizes)):
        state = BB if (j - 3 + phase) % 2 == 0 else RR
        for i in range(j):
            st[(i, j)] = state
    return st


def _part_matrix_valid(sizes: list[int], st: dict[tuple[int, int], State]) -> bool:
    """Conflict check on the part-level state matrix: O(k^2).

    Exact for the doubled complete multipartite graph: every vertex of part
    i has red degree sum_j sizes[j] * r_ij (blue alike), so an edge between
    parts i and j conflicts exactly when these sums tie in a color it holds.
    """
    k = len(sizes)
    red = [0] * k
    blue = [0] * k
    for (i, j), (r, b) in st.items():
        red[i] += sizes[j] * r
        red[j] += sizes[i] * r
        blue[i] += sizes[j] * b
        blue[j] += sizes[i] * b
    for (i, j), (r, b) in st.items():
        if r and red[i] == red[j]:
            return False
        if b and blue[i] == blue[j]:
            return False
    return True


_PAIR_STATES = (RR, RB, BB)


def _part_pair_search(sizes: list[int]) -> dict[tuple[int, int], State] | None:
    """First valid part matrix, by backchecking search over the part pairs in
    lexicographic order with states RR, RB, BB, or None once exhausted.

    A vertex of part i has red degree sum_j sizes[j] * r_ij (blue alike), so
    the part degrees are exact. solver._schedule places each pair's conflict
    test at the step where both its parts' degrees become final (Haralick &
    Elliott, Artificial Intelligence 14, 1980); the loop keeps its own stack.
    """
    k = len(sizes)
    pairs = list(itertools.combinations(range(k), 2))
    checks = _schedule(k, pairs)
    deg = [[0, 0] for _ in range(k)]  # red and blue degree in each part
    pick = [0] * len(pairs)  # states tried so far at each pair
    i = 0
    while True:
        a, b = pairs[i]
        p = pick[i]
        if p:  # take back the state tried last at this pair
            for c, x in enumerate(_PAIR_STATES[p - 1]):
                deg[a][c] -= sizes[b] * x
                deg[b][c] -= sizes[a] * x
            if p == len(_PAIR_STATES):
                pick[i] = 0
                if i == 0:
                    return None
                i -= 1
                continue
        pick[i] = p + 1
        for c, x in enumerate(_PAIR_STATES[p]):
            deg[a][c] += sizes[b] * x
            deg[b][c] += sizes[a] * x
        if not any(
            x and deg[u][c] == deg[v][c]
            for j, u, v in checks[i]
            for c, x in enumerate(_PAIR_STATES[pick[j] - 1])
        ):
            i += 1
            if i == len(pairs):
                return {pair: _PAIR_STATES[q - 1] for pair, q in zip(pairs, pick)}


def multipartite_states(parts: list[list[int]]) -> dict[Edge, State]:
    """States of every multiedge of the doubled complete multipartite graph
    with these parts, on the parts' own vertex labels.

    Parts are taken in ascending size order (ties keep input order). Two
    parts: all red when unbalanced, else the multiedges at the first part's
    first vertex red and the rest blue. With k >= 3 parts the colorer tries,
    in this order: the two textbook part matrices (_textbook_matrix, phase 0
    then 1), judged by the exact O(k^2) _part_matrix_valid; a
    vertex-sequential coloring in four variants, judged by the verifier's
    conflict scan; the part-pair search. The first valid candidate is
    returned.
    """
    k = len(parts)
    if k < 2 or any(not p for p in parts):
        raise ValueError("need >= 2 parts, all non-empty")
    if sum(len(p) for p in parts) < 3:
        raise ValueError("no locally irregular coloring exists for a doubled K2")
    parts = sorted(parts, key=len)

    if k == 2:
        a, b = parts
        if len(a) != len(b):
            return {canon_edge(u, v): RR for u in a for v in b}
        chosen = a[0]
        return {canon_edge(u, v): RR if u == chosen else BB for u in a for v in b}

    part_sizes = [len(p) for p in parts]

    def expand(st) -> dict[Edge, State]:
        return {
            canon_edge(u, v): state
            for (i, j), state in st.items()
            for u in parts[i]
            for v in parts[j]
        }

    def vertex_sequential() -> dict[Edge, State] | None:
        """Complete-graph-style fallback: triangle seed on one vertex from
        each of the three smallest parts, every later vertex painting its
        back multiedges a single alternating color."""
        part_of = {v: i for i, part in enumerate(parts) for v in part}
        n = max(part_of) + 1
        seed = [parts[0][0], parts[1][0], parts[2][0]]
        for ordered in (parts, list(reversed(parts))):
            rest = [v for part in ordered for v in part if v not in seed]
            for phase in (0, 1):
                assign = {
                    canon_edge(seed[0], seed[1]): RR,
                    canon_edge(seed[1], seed[2]): RB,
                    canon_edge(seed[0], seed[2]): BB,
                }
                earlier = list(seed)
                for i, v in enumerate(rest):
                    state = BB if (i + phase) % 2 == 0 else RR
                    for u in earlier:
                        if part_of[u] != part_of[v]:
                            assign[canon_edge(u, v)] = state
                    earlier.append(v)
                if not color_conflicts(n, 2, assign, assign):
                    return assign
        return None

    for phase in (0, 1):
        st = _textbook_matrix(part_sizes, phase)
        if _part_matrix_valid(part_sizes, st):
            return expand(st)
    assign = vertex_sequential()
    if assign is not None:
        return assign
    st = _part_pair_search(part_sizes)
    if st is None:
        raise AssertionError(
            f"no candidate colors the doubled complete multipartite graph {part_sizes}; "
            "this would contradict the underlying theorem"
        )
    return expand(st)


def color_double_multipartite(sizes: list[int]) -> Decomposition:
    """Two-coloring of the doubled complete multipartite graph with the given
    part sizes; part i holds the next sizes[i] vertices. See
    multipartite_states for the construction."""
    bounds = list(itertools.accumulate(sizes, initial=0))
    parts = [list(range(bounds[i], bounds[i + 1])) for i in range(len(sizes))]
    assign = multipartite_states(parts)
    return Decomposition(double(complete_multipartite_graph(list(sizes))), 2, assign)


def color_t_family_3(g: SimpleGraph, witness: TWitness | None = None) -> Decomposition:
    """Three-coloring of the doubled triangle-family member.

    Replays the construction: the root triangle takes the two-color triangle
    pattern; every attached multipath splits into length-two blocks colored
    with two alternating colors, starting with a color absent at the
    attachment vertex. Odd paths absorb their closing triangle into the last
    two blocks.
    """
    if witness is None:
        witness = t_family_witness(g)
    if witness is None:
        raise ValueError("graph is not in the triangle family")
    host = double(g)
    assign: dict[tuple[int, int], tuple[int, int, int]] = {}
    vertex_color_deg = [[0, 0, 0] for _ in range(g.n)]

    def put(u: int, v: int, color: int) -> None:
        counts = [0, 0, 0]
        counts[color] = 2
        assign[canon_edge(u, v)] = tuple(counts)
        vertex_color_deg[u][color] += 2
        vertex_color_deg[v][color] += 2

    a, b, c = witness.root
    # doubled-triangle pattern in colors 0 and 1: (0,0), (0,1), (1,1)
    assign[canon_edge(a, b)] = (2, 0, 0)
    assign[canon_edge(b, c)] = (1, 1, 0)
    assign[canon_edge(a, c)] = (0, 2, 0)
    for v, w, counts in ((a, b, (2, 0, 0)), (b, c, (1, 1, 0)), (a, c, (0, 2, 0))):
        for col, cnt in enumerate(counts):
            vertex_color_deg[v][col] += cnt
            vertex_color_deg[w][col] += cnt

    for step in witness.steps:
        host_v = step.host
        c1 = min(col for col in range(3) if vertex_color_deg[host_v][col] == 0)
        c2 = min(col for col in range(3) if col != c1)
        path = step.path
        blocks: list[list[tuple[int, int]]] = []
        path_edges = list(zip(path, path[1:]))
        if step.triangle is None:
            for i in range(0, len(path_edges), 2):
                blocks.append(path_edges[i : i + 2])
        else:
            q1, q2 = step.triangle
            end = path[-1]
            closing = path_edges + [(end, q1)]
            for i in range(0, len(closing), 2):
                blocks.append(closing[i : i + 2])
            blocks.append([(q1, q2), (q2, end)])
        for i, block in enumerate(blocks):
            color = c1 if i % 2 == 0 else c2
            for u, w in block:
                put(u, w, color)

    return Decomposition(host, 3, assign)


# --- dispatch --------------------------------------------------------------


def color_double_auto(
    g: SimpleGraph, tag: Classification | None = None
) -> Decomposition | None:
    """Two-coloring of the doubled input via the matching class construction.

    Every construction runs on the caller's vertex labels, from the vertex
    order, hub or parts that classify found. Returns None when no
    constructive two-colorer covers the class. A caller that has already
    classified g passes classify's result as tag.
    """
    from .bipartite import Bipartition, color_double_bipartite

    if g.n <= 2 or g.m == 0:
        return None
    if tag is None:
        tag = classify(g)
    closed_form = (
        ClassKind.PATH,
        ClassKind.CYCLE,
        ClassKind.COMPLETE,
        ClassKind.WHEEL,
        ClassKind.COMPLETE_MULTIPARTITE,
    )
    if tag.kind not in closed_form:
        sides = bipartition_sides(g)
        if sides is None:
            return None
        return color_double_bipartite(g, Bipartition(frozenset(sides[0]), frozenset(sides[1])))
    if tag.kind is ClassKind.COMPLETE:
        return color_double_complete(g.n)
    if tag.kind is ClassKind.PATH:
        assign = path_assign(tag.order)
    elif tag.kind in (ClassKind.CYCLE, ClassKind.WHEEL):
        assign = ring_assign(tag.order, tag.hub)
    else:
        assign = multipartite_states(tag.parts)
    return Decomposition(double(g), 2, assign)
