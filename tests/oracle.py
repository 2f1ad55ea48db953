"""Independent brute-force oracles for the test suite.

Everything here re-derives results from first principles (plain enumeration,
direct degree counting) so the tests do not depend on the code paths they
are checking.
"""

from __future__ import annotations

import itertools
import json
import random

from lirdec.classify import TWitness, t_family_witness, triangles_of
from lirdec.colorers import _part_rows, multipartite_states, path_assign, ring_assign
from lirdec.decomposition import BB, RB, RR, Decomposition, verify
from lirdec.enumeration import canonical_key
from lirdec.graph_io import decomposition_from_json
from lirdec.graphs import (
    Edge,
    Multigraph,
    SimpleGraph,
    canon_edge,
    complete_multipartite_graph,
    cycle_graph,
    double,
    is_locally_irregular,
    path_graph,
    wheel_graph,
)
from lirdec.harness import SweepRecord


def vectors_summing_to(total: int, k: int) -> list[tuple[int, ...]]:
    """All k-tuples of non-negative ints with the given sum (lexicographic)."""
    if k == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in vectors_summing_to(total - first, k - 1):
            out.append((first,) + rest)
    return out


def enumerate_decompositions(m: Multigraph, k: int):
    """Every k-color decomposition of m, by unpruned cartesian product."""
    edges = list(m.edges)
    choices = [vectors_summing_to(m.mult[e], k) for e in edges]
    for combo in itertools.product(*choices):
        yield Decomposition(m, k, dict(zip(edges, combo)))


def brute_min_colors(m: Multigraph, kmax: int) -> tuple[int, Decomposition] | None:
    """Smallest k <= kmax with a verifier-valid decomposition, or None."""
    for k in range(1, kmax + 1):
        for d in enumerate_decompositions(m, k):
            if verify(d).valid:
                return k, d
    return None


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


def brute_graph_decomposable(g: SimpleGraph) -> bool:
    """Set-partition existence check: one color per edge, all class counts."""
    edges = list(g.edges)
    m = len(edges)
    if m == 0:
        return True
    for k in range(1, m + 1):
        for combo in itertools.product(range(k), repeat=m):
            deg: dict[tuple[int, int], int] = {}
            for (u, v), c in zip(edges, combo):
                deg[(u, c)] = deg.get((u, c), 0) + 1
                deg[(v, c)] = deg.get((v, c), 0) + 1
            if all(deg[(u, c)] != deg[(v, c)] for (u, v), c in zip(edges, combo)):
                return True
        if k >= m // 2:
            break
    return False


def degree_parity(n: int, edge_set) -> list[int]:
    """Degree mod 2 of every vertex in the graph (n, edge_set)."""
    deg = [0] * n
    for u, v in edge_set:
        deg[u] += 1
        deg[v] += 1
    return [d % 2 for d in deg]


def random_connected_graph(n: int, extra_edges: int, rng: random.Random) -> SimpleGraph:
    """Random tree plus extra random edges; always connected."""
    edges = set()
    for v in range(1, n):
        edges.add(tuple(sorted((v, rng.randrange(v)))))
    candidates = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges
    ]
    rng.shuffle(candidates)
    edges.update(candidates[:extra_edges])
    return SimpleGraph(n, edges)


def graph6_reference(n: int, edge_set) -> str:
    """graph6 text of a graph, bit by bit: the size as the char n + 63 up to
    n = 62, else "~" and n in three 6-bit chars, big end first, each plus
    63; then for j = 1..n-1 and i < j, in that order, one bit for "is
    {i, j} an edge", padded with zeros to a multiple of six and written six
    bits per char, offset 63."""
    edges = {tuple(sorted(e)) for e in edge_set}
    bits = [1 if (i, j) in edges else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    chars = [
        chr(63 + int("".join(map(str, bits[t : t + 6])), 2))
        for t in range(0, len(bits), 6)
    ]
    size = chr(63 + n) if n <= 62 else "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    return size + "".join(chars)


# --- graph helpers and fixtures that only the tests use ----------------------


def connected_components(g: SimpleGraph) -> list[list[int]]:
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        stack = [s]
        while stack:
            u = stack.pop()
            for w in g.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def induced_subgraph(g: SimpleGraph, vertices) -> tuple[SimpleGraph, list[int]]:
    """Induced subgraph on the given vertices.

    Returns (subgraph, index_map) where index_map[i] is the original id
    of subgraph vertex i.
    """
    keep = sorted(set(vertices))
    pos = {v: i for i, v in enumerate(keep)}
    sub_edges = [(pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos]
    return SimpleGraph(len(keep), sub_edges), keep


def bipartition_reference(g: SimpleGraph) -> tuple[list[int], list[int]] | None:
    """DFS 2-coloring of every component, each started on side 0; None when
    an odd cycle shows up."""
    side = [-1] * g.n
    for s in range(g.n):
        if side[s] != -1:
            continue
        side[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for w in g.adj[u]:
                if side[w] == -1:
                    side[w] = 1 - side[u]
                    stack.append(w)
                elif side[w] == side[u]:
                    return None
    return (
        [v for v in range(g.n) if side[v] == 0],
        [v for v in range(g.n) if side[v] == 1],
    )


def two_triangles_graph() -> SimpleGraph:
    """Two triangles sharing one vertex (vertex 0); decomposes into three
    locally irregular paths."""
    return SimpleGraph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


def bowtie_graph() -> SimpleGraph:
    """The bow-tie graph B: two pairs of triangles, each pair sharing a
    center vertex, with the two centers joined by a bridge.

    The one known connected graph outside the non-decomposable families that
    needs four colors.
    """
    return SimpleGraph(
        10,
        [
            (0, 1), (0, 2), (1, 2),
            (0, 4), (0, 5), (4, 5),
            (0, 3),
            (3, 6), (3, 7), (6, 7),
            (3, 8), (3, 9), (8, 9),
        ],
    )


def record_from_json(text: str) -> SweepRecord:
    """A SweepRecord back from its JSON line."""
    payload = json.loads(text)
    witness = None
    if payload.get("witness") is not None:
        witness = decomposition_from_json(json.dumps(payload["witness"]))
    return SweepRecord(
        graph_id=payload["graph"],
        n=payload["n"],
        m=payload["m"],
        class_tag=payload["class"],
        method=payload["method"],
        result=payload["result"],
        witness=witness,
        runtime=payload.get("runtime", 0.0),
        detail=payload.get("detail", ""),
    )


def size_vectors(max_parts: int, max_total: int) -> list[list[int]]:
    """Every non-increasing vector of >= 2 positive part sizes within the caps."""

    def grow(prefix, total):
        if len(prefix) >= 2:
            yield prefix
        if len(prefix) == max_parts:
            return
        top = prefix[-1] if prefix else max_total
        for size in range(1, min(top, max_total - total) + 1):
            yield from grow(prefix + [size], total + size)

    return list(grow([], 0))


def multipartite_parts_reference(g: SimpleGraph) -> list[list[int]] | None:
    """Parts of g when complete multipartite (>= 2 parts), else None: the
    complement, built pair by pair, must be a disjoint union of cliques."""
    non_adjacent = {
        (u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)
    }
    part_of = list(range(g.n))  # union-find over complement edges

    def find(x):
        while part_of[x] != x:
            x = part_of[x]
        return x

    for u, v in non_adjacent:
        part_of[find(u)] = find(v)
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    parts = sorted(groups.values())
    for part in parts:
        for a, b in itertools.combinations(part, 2):
            if (a, b) not in non_adjacent:
                return None
    return parts if len(parts) >= 2 else None


def find_twin_split_reference(g: SimpleGraph):
    """Twin split by scoring every candidate: within the first pool that has
    a valid split (maximal twin classes, then classes less one member), the
    valid candidate S with the smallest (|S| + |N(S)|, sorted S). Each
    candidate is checked on its own: a fresh bipartition and an induced
    residue subgraph. Returns (S, T, X', Y') as sorted lists; raises
    ValueError when no candidate is valid."""
    def split_ok(s):
        s_set = set(s)
        t_set = set()
        for v in s:
            t_set.update(g.adj[v])
        rest = [v for v in range(g.n) if v not in s_set and v not in t_set]
        if rest:
            sub, _ = induced_subgraph(g, rest)
            if not sub.is_connected():
                return None
        sides = bipartition_reference(g)
        if sides is None:
            return None
        x, y = sides
        if s[0] in y:
            x, y = y, x
        if not s_set <= set(x):
            return None
        xp = [v for v in x if v not in s_set]
        yp = [v for v in y if v not in t_set]
        if xp:
            for t in t_set:
                if not set(xp) & set(g.adj[t]):
                    return None
        return sorted(s_set), sorted(t_set), sorted(xp), sorted(yp)

    if not g.is_connected():
        raise ValueError("twin split requires a connected graph")
    groups: dict = {}
    for v in range(g.n):
        groups.setdefault(g.adj[v], []).append(v)
    classes = [sorted(vs) for vs in groups.values()]
    for pool in (
        classes,
        [c[:i] + c[i + 1 :] for c in classes if len(c) >= 2 for i in range(len(c))],
    ):
        best = None
        for cand in pool:
            split = split_ok(cand)
            if split is None:
                continue
            score = (len(split[0]) + len(split[1]), split[0])
            if best is None or score < best[0]:
                best = (score, split)
        if best is not None:
            return best[1]
    raise ValueError("twin split not found")


def part_matrix(sizes: list[int]) -> dict[tuple[int, int], tuple[int, int]]:
    """colorers._part_rows spelled out pair by pair: keyed by part-index
    pairs (i, j), i < j, each later part's row state on every pair (i, t)."""
    seed, rows = _part_rows(sizes)
    st = dict(seed)
    for t, state in enumerate(rows, 3):
        for i in range(t):
            st[(i, t)] = state
    return st


def part_matrix_valid(sizes: list[int], st: dict[tuple[int, int], tuple[int, int]]) -> bool:
    """Conflict check on a part-level state matrix keyed by part-index pairs
    (i, j), i < j: O(k^2).

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
    return not any(
        r and red[i] == red[j] or b and blue[i] == blue[j] for (i, j), (r, b) in st.items()
    )


def color_double_multipartite_reference(sizes: list[int]) -> Decomposition:
    """The multipartite two-coloring built on canonical labels (part i holds
    the next sizes[i] vertices), re-derived part by part with verify as the
    only judge. Parts by descending size, ties in input order. Two parts:
    all red when unbalanced, else red exactly at the first part's first
    vertex. Three or more: the seed on the three largest parts, then each
    later part gives all its multiedges to earlier parts the first of BB
    and RR that verify accepts on the coloring built so far."""
    from lirdec.graphs import complete_multipartite_graph

    bounds = [0]
    for s in sizes:
        bounds.append(bounds[-1] + s)
    parts = sorted(
        (list(range(bounds[i], bounds[i + 1])) for i in range(len(sizes))),
        key=lambda part: -len(part),
    )
    host = double(complete_multipartite_graph(list(sizes)))
    if len(parts) == 2:
        a, b = parts
        chosen = a[0] if len(a) == len(b) else None
        assign = {
            canon_edge(u, v): RR if chosen is None or u == chosen else BB
            for u in a
            for v in b
        }
        return Decomposition(host, 2, assign)

    def paint(assign, i, j, state):
        for u in parts[i]:
            for v in parts[j]:
                assign[canon_edge(u, v)] = state

    a, b, c = (len(p) for p in parts[:3])
    if a == b == c:
        seed = {(0, 1): RR, (1, 2): RB, (0, 2): BB}
    elif a == b:
        seed = {(0, 1): RR, (0, 2): RR, (1, 2): BB}
    elif b == c:
        seed = {(0, 1): RR, (0, 2): BB, (1, 2): RR}
    else:
        seed = {(0, 1): RR, (0, 2): RR, (1, 2): RR}
    assign: dict[Edge, tuple[int, int]] = {}
    for (i, j), state in seed.items():
        paint(assign, i, j, state)
    for t in range(3, len(parts)):
        for state in (BB, RR):
            trial = dict(assign)
            for i in range(t):
                paint(trial, i, t, state)
            partial = double(SimpleGraph(host.n, trial))
            if verify(Decomposition(partial, 2, trial)).valid:
                assign = trial
                break
        else:
            raise AssertionError(f"neither BB nor RR extends {sizes} at part {t}")
    return Decomposition(host, 2, assign)


def color_multipartite_graph_reference(g: SimpleGraph) -> Decomposition:
    """The multipartite two-coloring of a relabelled complete multipartite g,
    built on canonical labels and carried over with relabeled:
    canonical part i is g's i-th part by descending size (ties by smallest
    vertex), each part's vertices in ascending order."""
    parts = sorted(multipartite_parts_reference(g), key=lambda part: -len(part))
    canonical = color_double_multipartite_reference([len(p) for p in parts])
    return relabeled(canonical, [v for part in parts for v in part], double(g))


def colors_used(d: Decomposition) -> int:
    """Number of colors with at least one edge unit."""
    return sum(1 for c in range(d.k) if any(v[c] for v in d.assign.values()))


def color_class(d: Decomposition, c: int) -> Multigraph | None:
    """The submultigraph induced by color c, or None when c is empty."""
    if not (0 <= c < d.k):
        raise ValueError(f"color {c} out of range")
    edges = {e: v[c] for e, v in d.assign.items() if v[c] > 0}
    if not edges:
        return None
    return Multigraph(SimpleGraph(d.host.n, edges.keys()), edges)


def conflicts_by_definition(d: Decomposition) -> set[tuple[int, Edge, int]]:
    """Every (c, {u,v}, deg) where edge {u,v} lies in color class c and both
    its ends have degree deg there, straight from the definition: class c
    holds the edges with a positive count of c, and a vertex's degree in it
    is the sum of those counts over the edges that contain the vertex."""
    out = set()
    items = list(d.assign.items())
    for c in range(d.k):
        for (u, v), counts in items:
            if counts[c]:
                du = sum(x[c] for e, x in items if u in e)
                dv = sum(x[c] for e, x in items if v in e)
                if du == dv:
                    out.add((c, (u, v), du))
    return out


def relabeled(d: Decomposition, mapping: list[int], new_host: Multigraph) -> Decomposition:
    """Transfer d onto new_host, sending vertex i to mapping[i]."""
    assign = {
        canon_edge(mapping[u], mapping[v]): counts for (u, v), counts in d.assign.items()
    }
    return Decomposition(new_host, d.k, assign)


def color_degree_table(d: Decomposition) -> list[list[int]]:
    """All color degrees at once: table[v][c]."""
    table = [[0] * d.k for _ in range(d.host.n)]
    for (u, v), counts in d.assign.items():
        for c, cnt in enumerate(counts):
            if cnt:
                table[u][c] += cnt
                table[v][c] += cnt
    return table


def color_degree(d: Decomposition, v: int, c: int) -> int:
    """Degree of v in the color-c submultigraph."""
    if not (0 <= v < d.host.n):
        raise ValueError(f"vertex {v} out of range")
    if not (0 <= c < d.k):
        raise ValueError(f"color {c} out of range")
    return sum(d.assign[canon_edge(v, w)][c] for w in d.host.base.adj[v])


def parity_profile(d: Decomposition) -> list[tuple[int, int]]:
    """(red parity, blue parity) per vertex; equal coordinates for doubled hosts."""
    return [(row[0] % 2, row[1] % 2) for row in color_degree_table(d)]


def cycle_states_brute(length: int) -> list[tuple[int, int]] | None:
    """First valid state vector of the doubled cycle by base-3 counting
    (digits 0/1/2 = RR/RB/BB, first edge least significant). From length 4
    on, only vectors with two cyclically adjacent all-red multiedges count,
    rotated so those two come first."""
    host = double(cycle_graph(length))
    for code in range(3**length):
        states = []
        for _ in range(length):
            states.append((RR, RB, BB)[code % 3])
            code //= 3
        anchor = 0
        if length > 3:
            anchor = next(
                (i for i in range(length) if states[i] == RR == states[(i + 1) % length]),
                None,
            )
            if anchor is None:
                continue
        assign = {canon_edge(i, (i + 1) % length): s for i, s in enumerate(states)}
        if verify(Decomposition(host, 2, assign)).valid:
            return states[anchor:] + states[:anchor]
    return None


def three_part_states(
    sizes: tuple[int, int, int], order: tuple[int, int, int]
) -> dict[tuple[int, int], tuple[int, int]] | None:
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


def part_matrices(part_sizes: list[int]):
    """Part-level state matrices for k >= 3 ascending parts, textbook first.

    Keys are part-index pairs (i, j), i < j. A seed occupies a trio of parts
    and takes the three-part pattern; every later part takes one state
    toward all earlier parts. The first two matrices are the textbook
    alternation (seed on the three smallest parts, blue-led, then red-led);
    the rest run over every trio, seed and 3^(k-3) pattern.
    """
    k = len(part_sizes)
    for trio_idx in itertools.combinations(range(k), 3):
        trio_sizes = tuple(part_sizes[i] for i in trio_idx)
        others = [i for i in range(k) if i not in trio_idx]
        seen_seeds = set()
        for order in itertools.permutations(range(3)):
            seed = three_part_states(trio_sizes, order)
            if seed is None:
                continue
            key = tuple(sorted(seed.items()))
            if key in seen_seeds:
                continue
            seen_seeds.add(key)
            lifted = {(trio_idx[i], trio_idx[j]): s for (i, j), s in seed.items()}
            patterns = itertools.product((BB, RR, RB), repeat=len(others))
            if trio_idx == (0, 1, 2):
                patterns = itertools.chain(
                    [
                        tuple(BB if (i + ph) % 2 == 0 else RR for i in range(len(others)))
                        for ph in (0, 1)
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


def t_family_members(
    max_vertices: int, limit: int | None = None
) -> list[tuple[SimpleGraph, TWitness]]:
    """Generate triangle-family members by replaying the construction.

    Deterministic breadth-first expansion, deduplicated by canonical_key;
    every returned graph carries its construction witness.
    """
    k3 = SimpleGraph(3, [(0, 1), (1, 2), (0, 2)])
    out: list[tuple[SimpleGraph, TWitness]] = []
    seen = set()
    frontier = [k3]
    while frontier:
        next_frontier = []
        for g in frontier:
            key = canonical_key(g)
            if key in seen:
                continue
            seen.add(key)
            witness = t_family_witness(g)
            if witness is None:
                raise AssertionError("generator produced a non-member")
            out.append((g, witness))
            if limit is not None and len(out) >= limit:
                return out
            tris = triangles_of(g)
            tri_vertices = {v for tri in tris for v in tri}
            hosts = [v for v in tri_vertices if g.degree(v) == 2]
            for host in hosts:
                # pendant paths of even length
                for ln in (2, 4, 6):
                    if g.n + ln <= max_vertices:
                        edges = list(g.edges)
                        prev = host
                        for i in range(ln):
                            edges.append((prev, g.n + i))
                            prev = g.n + i
                        next_frontier.append(SimpleGraph(g.n + ln, edges))
                # odd paths ending in a fresh triangle
                for ln in (1, 3, 5):
                    if g.n + ln + 2 <= max_vertices:
                        edges = list(g.edges)
                        prev = host
                        for i in range(ln):
                            edges.append((prev, g.n + i))
                            prev = g.n + i
                        a, b = g.n + ln, g.n + ln + 1
                        edges += [(prev, a), (prev, b), (a, b)]
                        next_frontier.append(SimpleGraph(g.n + ln + 2, edges))
        frontier = next_frontier
    return out


# The conjecture asks for two colors, which the exact search finds for every
# doubled triangle-family member, so only the tests use this three-coloring.
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


def plan_steps(m: Multigraph) -> list:
    """lirdec.solver._plan's steps with vertices in place of color-degree
    rows: per step (edge, checks, twins), each check (j, a, b, near) with
    edge j = (a, b). Asserts that each vertex with an edge has its own row,
    that each step's rows are its edge's endpoints' and that the step of
    each host edge, which puts witnesses in host order, is that edge's."""
    from lirdec.solver import _plan

    steps, rows, _, rank = _plan(m, [len(nb) for nb in m.base.adj], set(m.mult.values()))
    vertex = {id(row): v for v, row in enumerate(rows) if row is not None}
    assert len(vertex) == sum(row is not None for row in rows)
    order: list = [None] * len(steps)
    for e, i in zip(m.edges, rank):
        order[i] = e
    assert None not in order

    def edge(da, db) -> Edge:
        return canon_edge(vertex[id(da)], vertex[id(db)])

    plan = []
    for e, (du, dv, checks, twins) in zip(order, steps):
        assert edge(du, dv) == e
        plan.append((e, [(j, *edge(da, db), near) for j, da, db, near in checks], twins))
    return plan


def _chronological_multigraph_k(m: Multigraph, plan, k: int, budget: list[int]):
    """The doubled-mode loop with chronological backtracking over the
    plan's (edge, backchecks, twins) steps: first-edge color symmetry
    breaking, plus the twin lex-leader checks (all empty for the search
    without them)."""
    from lirdec.solver import _BudgetExhausted, _edge_options

    n_edges = len(plan)
    deg = [[0] * k for _ in range(m.n)]
    mult = m.mult
    options = [_edge_options(mult[e], k, i == 0) for i, (e, _, _) in enumerate(plan)]
    state_lists = [[s for s, _ in opts] for opts in options]
    steps = [
        (deg[u], deg[v], [units for _, units in opts], [(j, deg[a], deg[b]) for j, a, b, _ in checks], twins)
        for ((u, v), checks, twins), opts in zip(plan, options)
    ]
    pick = [0] * n_edges
    units = [()] * n_edges
    i = 0
    while n_edges:
        du, dv, options, tests, twins = steps[i]
        p = pick[i]
        if p:
            for c, x in units[i]:
                du[c] -= x
                dv[c] -= x
            if p == len(options):
                pick[i] = 0
                if i == 0:
                    return None
                i -= 1
                continue
        budget[0] -= 1
        if budget[0] < 0:
            raise _BudgetExhausted
        pick[i] = p + 1
        placed = units[i] = options[p]
        for c, x in placed:
            du[c] += x
            dv[c] += x
        if not all(da[c] != db[c] for j, da, db in tests for c, _ in units[j]):
            continue
        for pairs in twins:
            for f, s in pairs:
                xf = state_lists[f][pick[f] - 1]
                xs = state_lists[s][pick[s] - 1]
                if xf != xs:
                    break
            else:
                continue
            if xf < xs:  # a lex-larger vector has a lower rank
                break
        else:
            i += 1
            if i == n_edges:
                break
    return {e: states[q - 1] for (e, _, _), states, q in zip(plan, state_lists, pick)}


def _reference_graph_k(g: SimpleGraph, plan, k: int, budget: list[int]):
    """The graph-mode loop over the plan's steps with restricted growth
    only: the twin checks are ignored."""
    from lirdec.solver import _BudgetExhausted

    n_edges = len(plan)
    deg = [[0] * k for _ in range(g.n)]
    steps = [
        (deg[u], deg[v], [(j, deg[a], deg[b]) for j, a, b, _ in checks])
        for (u, v), checks, _ in plan
    ]
    color = [-1] * n_edges
    used = [0] * (n_edges + 1)
    i = 0
    while n_edges:
        du, dv, tests = steps[i]
        c = color[i]
        if c >= 0:
            du[c] -= 1
            dv[c] -= 1
            if c + 1 == (used[i] + 1 if used[i] < k else k):
                color[i] = -1
                if i == 0:
                    return None
                i -= 1
                continue
        c += 1
        budget[0] -= 1
        if budget[0] < 0:
            raise _BudgetExhausted
        color[i] = c
        du[c] += 1
        dv[c] += 1
        if all(da[color[j]] != db[color[j]] for j, da, db in tests):
            used[i + 1] = used[i] if c < used[i] else c + 1
            i += 1
            if i == n_edges:
                break
    return {e: tuple(int(c == x) for x in range(k)) for (e, _, _), c in zip(plan, color)}


def reference_exact_search(host, lim, graph_mode: bool = False, twins: bool = False):
    """The exact search with chronological backtracking and without vertex
    symmetry breaking: the same edge order, backchecks and color symmetry
    breaking as lirdec.solver, so the same status, color count and witness,
    with more nodes. host is a Multigraph, or a SimpleGraph with graph_mode
    (one color per edge). twins (doubled mode only) adds the solver's twin
    lex-leader checks: the solver's search before conflict-directed
    backjumping."""
    from lirdec.solver import SearchStatus, SolveResult, _BudgetExhausted

    if graph_mode and twins:
        raise ValueError("the twin checks are kept for the doubled-mode loop only")
    m = Multigraph(host) if graph_mode else host
    if is_locally_irregular(m):
        return SolveResult(
            SearchStatus.FOUND, 1, Decomposition(m, 1, {e: (mu,) for e, mu in m.mult.items()}), 0
        )
    budget = [lim.node_budget]
    plan = plan_steps(m)
    if not twins:
        plan = [(e, checks, ()) for e, checks, _ in plan]
    for k in range(2, lim.max_colors + 1):
        try:
            if graph_mode:
                found = _reference_graph_k(host, plan, k, budget)
            else:
                found = _chronological_multigraph_k(m, plan, k, budget)
        except _BudgetExhausted:
            return SolveResult(SearchStatus.INCONCLUSIVE, nodes=lim.node_budget)
        if found is not None:
            return SolveResult(
                SearchStatus.FOUND, k, Decomposition(m, k, found), lim.node_budget - budget[0]
            )
    return SolveResult(SearchStatus.NONE, nodes=lim.node_budget - budget[0])


# --- the witness layers' original per-edge loops ------------------------------
# Multigraph.__init__, Decomposition.__init__ and verify as they were before
# each became one pass per layer; the tests hold the program to them, message
# by message.


def multiplicities_reference(base: SimpleGraph, mult) -> dict[Edge, int]:
    """Multigraph(base, mult).mult, checking one entry at a time in the
    given order: the first non-edge or multiplicity below 1 raises."""
    mult = dict(mult) if mult else {}
    extra = mult.keys() - base.edges
    for e, mu in mult.items():
        if e in extra:
            raise ValueError(f"multiplicity given for non-edge {e}")
        if mu < 1:
            raise ValueError(f"multiplicity of {e} must be >= 1, got {mu}")
    return {e: mult.get(e, 1) for e in base.edges}


def assignment_reference(host: Multigraph, k: int, assign) -> dict[Edge, tuple[int, ...]]:
    """Decomposition(host, k, assign).assign, checking one edge at a time in
    edge order: coverage, length, sign, sum and type, then the non-edges."""
    if k < 1:
        raise ValueError("need at least one color")
    cleaned = {}
    for e in host.edges:
        counts = assign.get(e)
        if counts is None:
            raise ValueError(f"edge {e} has no color assignment")
        counts = tuple(counts)
        if len(counts) != k:
            raise ValueError(f"edge {e}: expected {k} counts, got {len(counts)}")
        if min(counts) < 0:
            raise ValueError(f"edge {e}: negative color count")
        if sum(counts) != host.mult[e]:
            raise ValueError(
                f"edge {e}: counts sum {sum(counts)} != multiplicity {host.mult[e]}"
            )
        if any(type(x) is not int for x in counts):
            raise ValueError(f"edge {e}: non-integer color count")
        cleaned[e] = counts
    if len(assign) != len(host.edges):
        extra = set(assign) - set(host.edges)
        raise ValueError(f"assignment for non-edges: {sorted(extra)}")
    return cleaned


def verify_reference(d: Decomposition) -> list[tuple[int, Edge, int]]:
    """verify(d).conflicts in separate passes: every sum in assignment
    order, then the degree table, then the conflicts one color at a time."""
    for e, counts in d.assign.items():
        if sum(counts) != d.host.mult[e]:
            raise ValueError(f"malformed decomposition at edge {e}")
    table = [[0] * d.k for _ in range(d.host.n)]
    for (u, v), counts in d.assign.items():
        for c, cnt in enumerate(counts):
            if cnt:
                table[u][c] += cnt
                table[v][c] += cnt
    conflicts = []
    for c in range(d.k):
        for e in d.host.edges:
            if d.assign[e][c] >= 1:
                u, v = e
                if table[u][c] == table[v][c]:
                    conflicts.append((c, e, table[u][c]))
    return conflicts


# The class constructions on canonical labels 0..n-1, as the program's
# color_double_auto runs them on the labels classify finds.


def color_double_path(n: int) -> Decomposition:
    """Two-coloring of the doubled path on n >= 3 vertices."""
    return Decomposition(double(path_graph(n)), 2, path_assign(range(n)))


def color_double_cycle(length: int) -> Decomposition:
    """Two-coloring of the doubled cycle with the given edge count."""
    return Decomposition(double(cycle_graph(length)), 2, ring_assign(range(length)))


def color_double_wheel(n: int) -> Decomposition:
    """Two-coloring of the doubled wheel of order n >= 4: rim 0..n-2, hub n-1."""
    return Decomposition(double(wheel_graph(n)), 2, ring_assign(range(n - 1), n - 1))


def color_double_complete(n: int) -> Decomposition:
    """Two-coloring of the doubled complete graph on n >= 3 vertices: the
    multipartite construction on singleton parts 0..n-1."""
    return color_double_multipartite([1] * n)


def color_double_multipartite(sizes: list[int]) -> Decomposition:
    """Two-coloring of the doubled complete multipartite graph with the given
    part sizes; part i holds the next sizes[i] vertices."""
    g = complete_multipartite_graph(list(sizes))
    bounds = list(itertools.accumulate(sizes, initial=0))
    parts = [list(range(bounds[i], bounds[i + 1])) for i in range(len(sizes))]
    return Decomposition(double(g), 2, multipartite_states(g, parts))
