"""Closed-form two-colorings of doubled graphs for standard classes.

Doubled-edge states: RR both red, RB one red one blue, BB both blue. Each
class has one construction, a function from a vertex order or parts to
multiedge states: path_assign for paths, ring_assign for cycles and wheels,
multipartite_states for complete multipartite and complete graphs.
color_double_auto runs it on the order or parts classify found (a complete
graph's parts are its single vertices) and hands the Decomposition the
states in the host's edge order. The even-length path pattern is
BB,BB,RR,RR repeating; odd paths prepend BB,RB,RR. Cycles of length 3..7
take the literal CYCLE_BASE table; longer cycles splice BB,BB,RR,RR blocks
in right after the base's two adjacent all-red multiedges. A wheel is its
rim cycle with every spoke all red. With three or more parts, largest
first, a seed fixes the pairs among the three largest; each later part
paints all its multiedges to earlier parts one state, BB unless an earlier
part of its size has no red yet, then RR. All vertices of a part share
their color degrees, so validity is a statement about part sizes; the
proof is in _part_rows.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from .classify import Classification, ClassKind, classify
from .decomposition import BB, RB, RR, Decomposition
from .graphs import Edge, SimpleGraph, double

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
    # from 4 on, the base is the one of length 4..7 that whole blocks extend
    base = CYCLE_BASE[4 + (length - 4) % 4 if length > 3 else 3]
    blocks = (length - len(base)) // 4
    return list(base[:2]) + [BB, BB, RR, RR] * blocks + list(base[2:])


def path_assign(order: Sequence[int]) -> dict[Edge, State]:
    """States of the doubled path visiting `order`, keyed by its edges."""
    states = path_states(len(order) - 1)
    return {
        (u, v) if u < v else (v, u): s for u, v, s in zip(order, order[1:], states)
    }


def ring_assign(order: Sequence[int], hub: int | None = None) -> dict[Edge, State]:
    """States of the doubled cycle around `order`; with a hub, of the doubled
    wheel on that rim, every spoke all red. For a rim of four or more the
    hub's red degree 2 * len(order) dominates every rim vertex."""
    states = cycle_states(len(order))
    after = itertools.chain(order[1:], order)  # zip stops at the wrap
    assign = {(u, v) if u < v else (v, u): s for u, v, s in zip(order, after, states)}
    if hub is not None:
        for v in order:
            assign[(v, hub) if v < hub else (hub, v)] = RR
    return assign


def _part_rows(sizes: list[int]) -> tuple[dict[tuple[int, int], State], list[State]]:
    """Part matrix of the doubled complete multipartite graph on k >= 3
    parts with these sizes, largest first: the seed, keyed by part-index
    pairs (i, j), i < j, among the three largest parts, and for each later
    part t the one state of all its multiedges to the parts before it.

    Seed, on the three largest parts a >= b >= c: all equal, 01 RR, 12 RB,
    02 BB; a = b > c, 01 RR, 02 RR, 12 BB; a > b = c, 01 RR, 02 BB, 12 RR;
    all distinct, every pair RR. Each later part t, of size s, paints its
    multiedges to every earlier part BB, or RR when an earlier part of size
    s has red degree 0 so far.

    Proof. A vertex of part i has red degree sum_j sizes[j] * r_ij, blue
    alike, so the four seeds are checked by direct case analysis. A uniform
    row moves the red degree of every earlier part by the same amount, and
    the blue degree too, so every earlier pair stays valid. Let N be the
    total size of the parts before t. BB ties t with an earlier part i only
    if blue_i = 2(N - s); as red_i + blue_i = 2(N - s_i) and s_i >= s, this
    needs s_i = s and red_i = 0. RR ties them only in the mirror case,
    s_i = s and blue_i = 0. An earlier part with no red and another with no
    blue would share a multiedge that is both all red and all blue, so BB
    or RR always fits.
    """
    a, b, c = sizes[:3]
    if a == c:
        seed = {(0, 1): RR, (1, 2): RB, (0, 2): BB}
    elif a == b:
        seed = {(0, 1): RR, (0, 2): RR, (1, 2): BB}
    elif b == c:
        seed = {(0, 1): RR, (0, 2): BB, (1, 2): RR}
    else:
        seed = {(0, 1): RR, (0, 2): RR, (1, 2): RR}
    # Every seed part has red. A BB row changes no red degree and leaves t
    # without red; an RR row gives every part red. So the parts without red
    # are those painted BB since the last RR row.
    blank: set[int] = set()  # their sizes
    rows = []
    for s in sizes[3:]:
        if s in blank:
            rows.append(RR)
            blank.clear()
        else:
            rows.append(BB)
            blank.add(s)
    return seed, rows


def multipartite_states(g: SimpleGraph, parts: list[list[int]]) -> list[State]:
    """States of the multiedges of the doubled complete multipartite graph
    g with these parts, in g's edge order.

    Parts are taken largest first (ties keep input order). Two parts: all
    red when unbalanced, else the multiedges at the first part's first
    vertex red and the rest blue. Three or more: _part_rows, every multiedge
    among the three largest parts in their pair's seed state, and every
    multiedge from a later part to an earlier one in the later part's row
    state; each edge reads its state from the table of part pairs.
    """
    k = len(parts)
    if k < 2 or any(not p for p in parts):
        raise ValueError("need >= 2 parts, all non-empty")
    if sum(len(p) for p in parts) < 3:
        raise ValueError("no locally irregular coloring exists for a doubled K2")
    parts = sorted(parts, key=len, reverse=True)
    if k == 2:
        a, b = parts
        if len(a) != len(b):
            return [RR] * g.m
        chosen = a[0]
        return [RR if u == chosen or v == chosen else BB for u, v in g.edges]
    seed, rows = _part_rows([len(p) for p in parts])
    table = [[None] * k for _ in range(k)]  # table[i][j]: the state between parts i and j
    for (i, j), state in seed.items():
        table[i][j] = table[j][i] = state
    for t, state in enumerate(rows, 3):
        for i in range(t):
            table[i][t] = table[t][i] = state
    row_of: list = [None] * g.n  # each vertex's part's row of the table
    part_of: list = [None] * g.n
    for i, part in enumerate(parts):
        for v in part:
            row_of[v] = table[i]
            part_of[v] = i
    return [row_of[u][part_of[v]] for u, v in g.edges]


# --- dispatch --------------------------------------------------------------


def color_double_auto(
    g: SimpleGraph, tag: Classification | None = None
) -> Decomposition | None:
    """Two-coloring of the doubled input via the matching class construction.

    Every construction runs on the caller's vertex labels, from the vertex
    order, hub, parts or bipartition sides that classify found, so no
    colorer walks g again. Returns None when no constructive two-colorer
    covers the class. A caller that has already classified g passes
    classify's result as tag.
    """
    if g.n <= 2 or g.m == 0:
        return None
    if tag is None:
        tag = classify(g)
    if tag.sides is not None:  # a bipartite graph of class OTHER
        from .bipartite import color_double_bipartite

        return color_double_bipartite(g, tag.sides)
    if tag.kind is ClassKind.PATH:
        states = list(map(path_assign(tag.order).__getitem__, g.edges))
    elif tag.kind is ClassKind.CYCLE or tag.kind is ClassKind.WHEEL:
        states = list(map(ring_assign(tag.order, tag.hub).__getitem__, g.edges))
    elif tag.kind is ClassKind.COMPLETE:
        states = multipartite_states(g, [[v] for v in range(g.n)])
    elif tag.kind is ClassKind.COMPLETE_MULTIPARTITE:
        states = multipartite_states(g, tag.parts)
    else:
        return None  # an odd cycle outside the closed-form classes
    return Decomposition(double(g), 2, states)
