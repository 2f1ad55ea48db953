"""Closed-form two-colorings of doubled graphs for standard classes, and the
recursive three-coloring of the triangle family.

Doubled-edge states: RR both red, RB one red one blue, BB both blue. The
even-length path pattern is BB,BB,RR,RR repeating; odd paths prepend
BB,RB,RR. Cycles of length 3..7 come from a frozen base table (found once by
exhaustive search); longer cycles splice BB,BB,RR,RR blocks in right after
the base's two adjacent all-red multiedges.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .classify import Classification, TWitness, t_family_witness
from .decomposition import BB, RB, RR, Decomposition, color_conflicts, verify
from .graphs import (
    Edge,
    SimpleGraph,
    canon_edge,
    complete_multipartite_graph,
    cycle_graph,
    double,
    path_graph,
    wheel_graph,
)

State = tuple[int, int]

_STATE_ORDER = (RR, RB, BB)  # enumeration digits 0/1/2


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


def color_double_path(n: int) -> Decomposition:
    """Two-coloring of the doubled path on n >= 3 vertices."""
    if n <= 2:
        raise ValueError("no locally irregular coloring exists for a doubled K2")
    host = double(path_graph(n))
    states = path_states(n - 1)
    assign = {canon_edge(i, i + 1): states[i] for i in range(n - 1)}
    return Decomposition(host, 2, assign)


def _cycle_states_brute(length: int, need_adjacent_rr: bool) -> list[State] | None:
    """First valid state vector for the doubled cycle, by base-3 counting.

    With need_adjacent_rr the result is rotated so positions 0 and 1 hold the
    required two cyclically adjacent all-red multiedges.
    """
    host = double(cycle_graph(length))
    for code in range(3**length):
        digits = []
        rest = code
        for _ in range(length):
            digits.append(rest % 3)
            rest //= 3
        states = [_STATE_ORDER[d] for d in digits]
        anchor = None
        if need_adjacent_rr:
            for i in range(length):
                if states[i] == RR and states[(i + 1) % length] == RR:
                    anchor = i
                    break
            if anchor is None:
                continue
        assign = {
            canon_edge(i, (i + 1) % length): states[i] for i in range(length)
        }
        if verify(Decomposition(host, 2, assign)).valid:
            if anchor:
                states = states[anchor:] + states[:anchor]
            return states
    return None


@lru_cache(maxsize=1)
def build_cycle_base_table() -> dict[int, list[State]]:
    """Base colorings for doubled cycles of length 3..7.

    Length 3 is the fixed red/red-blue/blue triangle; lengths 4..7 are found
    exhaustively under the two-adjacent-RR splice-anchor constraint. A search
    failure would falsify the underlying cycle theorem, hence the hard error.
    """
    table: dict[int, list[State]] = {3: [RR, RB, BB]}
    for length in range(4, 8):
        states = _cycle_states_brute(length, need_adjacent_rr=True)
        if states is None:
            raise AssertionError(f"no base coloring for doubled cycle {length}")
        table[length] = states
    return table


def cycle_states(length: int) -> list[State]:
    """State sequence around a doubled cycle of the given length."""
    if length < 3:
        raise ValueError("cycle needs length >= 3")
    table = build_cycle_base_table()
    if length <= 7:
        return list(table[length])
    base_len = 4 + (length - 4) % 4
    base = table[base_len]
    blocks = (length - base_len) // 4
    return list(base[:2]) + [BB, BB, RR, RR] * blocks + list(base[2:])


def color_double_cycle(length: int) -> Decomposition:
    """Two-coloring of the doubled cycle with the given edge count."""
    states = cycle_states(length)
    host = double(cycle_graph(length))
    assign = {canon_edge(i, (i + 1) % length): states[i] for i in range(length)}
    return Decomposition(host, 2, assign)


def color_double_wheel(n: int) -> Decomposition:
    """Two-coloring of the doubled wheel of order n: rim pattern, spokes red.

    The hub's red degree 2(n-1) dominates every rim vertex for n > 4; the
    n = 4 wheel is validated directly.
    """
    if n < 4:
        raise ValueError("wheel needs order >= 4")
    rim = n - 1
    host = double(wheel_graph(n))
    states = cycle_states(rim)
    assign = {canon_edge(i, (i + 1) % rim): states[i] for i in range(rim)}
    for i in range(rim):
        assign[canon_edge(i, rim)] = RR
    d = Decomposition(host, 2, assign)
    if n == 4 and not verify(d).valid:
        raise AssertionError("order-4 wheel coloring failed its direct check")
    return d


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


def _three_part_states(
    sizes: tuple[int, int, int], order: tuple[int, int, int]
) -> dict[tuple[int, int], State] | None:
    """Pairwise seed states for three parts with roles assigned by `order`,
    or None when the size pattern does not match the case the roles encode.
    Keys are role-index pairs (i, j), i < j."""
    ia, ib, ic = order
    p, q, r = sizes[ia], sizes[ib], sizes[ic]

    def key(i, j):
        return (i, j) if i < j else (j, i)

    if p != q and q != r and p != r:
        return {key(ia, ib): RR, key(ia, ic): RR, key(ib, ic): RR}
    if p == q == r:
        return {key(ia, ic): RR, key(ib, ic): BB, key(ia, ib): RB}
    if p == q:
        return {key(ia, ic): BB, key(ia, ib): RR, key(ib, ic): RR}
    return None


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


def _part_matrices(part_sizes: list[int]):
    """Part-level state matrices for k >= 3 parts, textbook candidate first.

    Matrix keys are part-index pairs (i, j), i < j, over the ascending part
    order. The seed occupies a trio of parts and takes the three-part
    pattern; every later part takes one state toward all earlier parts. The
    first two matrices are the textbook alternation (seed on the three
    smallest parts, blue-led, then red-led).
    """
    k = len(part_sizes)
    for trio_idx in itertools.combinations(range(k), 3):
        trio_sizes = tuple(part_sizes[i] for i in trio_idx)
        others = [i for i in range(k) if i not in trio_idx]
        seen_seeds = set()
        for order in itertools.permutations(range(3)):
            seed = _three_part_states(trio_sizes, order)
            if seed is None:
                continue
            key = tuple(sorted(seed.items()))
            if key in seen_seeds:
                continue
            seen_seeds.add(key)
            lifted = {(trio_idx[i], trio_idx[j]): s for (i, j), s in seed.items()}
            patterns = itertools.product((BB, RR, RB), repeat=len(others))
            if trio_idx == (0, 1, 2):
                # textbook alternation first: blue-led, then red-led
                patterns = itertools.chain(
                    [
                        tuple(
                            BB if (i + phase) % 2 == 0 else RR
                            for i in range(len(others))
                        )
                        for phase in (0, 1)
                    ],
                    patterns,
                )
            for pattern in patterns:
                st = dict(lifted)
                painted = list(trio_idx)
                for part_i, state in zip(others, pattern):
                    for prev in painted:
                        st[(min(prev, part_i), max(prev, part_i))] = state
                    painted.append(part_i)
                yield st


def multipartite_states(parts: list[list[int]]) -> dict[Edge, State]:
    """States of every multiedge of the doubled complete multipartite graph
    with these parts, on the parts' own vertex labels.

    Parts are taken in ascending size order (ties keep input order). Two
    parts: all red when unbalanced, else the multiedges at the first part's
    first vertex red and the rest blue. With k >= 3 parts the colorer tries, in this order:
    the two textbook part matrices (three smallest parts seeded with the
    distinct / two-equal / all-equal three-part pattern, every further part
    painting all its multiedges to earlier parts one color, alternating
    blue-led, then red-led); a vertex-sequential coloring in four variants;
    the remaining part matrices. A part matrix is judged by
    _part_matrix_valid, which is exact; a vertex-sequential variant by the
    verifier's conflict scan. The first valid candidate is returned.
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

    scanned = _part_matrices(part_sizes)
    for st in itertools.islice(scanned, 2):
        if _part_matrix_valid(part_sizes, st):
            return expand(st)
    assign = vertex_sequential()
    if assign is not None:
        return assign
    for st in scanned:
        if _part_matrix_valid(part_sizes, st):
            return expand(st)
    raise AssertionError(
        f"no candidate colors the doubled complete multipartite graph {part_sizes}; "
        "this would contradict the underlying theorem"
    )


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
    from .classify import ClassKind, classify
    from .enumeration import bipartition_sides

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
    host = double(g)
    order = tag.order
    if tag.kind is ClassKind.PATH:
        states = path_states(g.m)
        assign = {
            canon_edge(order[i], order[i + 1]): states[i] for i in range(g.m)
        }
    elif tag.kind in (ClassKind.CYCLE, ClassKind.WHEEL):
        states = cycle_states(len(order))
        assign = {
            canon_edge(order[i], order[(i + 1) % len(order)]): states[i]
            for i in range(len(order))
        }
        if tag.kind is ClassKind.WHEEL:
            for v in order:
                assign[canon_edge(v, tag.hub)] = RR
    else:
        assign = multipartite_states(tag.parts)
    return Decomposition(host, 2, assign)
