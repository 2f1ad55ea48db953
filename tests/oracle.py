"""Independent brute-force oracles for the test suite.

Everything here re-derives results from first principles (plain enumeration,
direct degree counting) so the tests do not depend on the code paths they
are checking.
"""

from __future__ import annotations

import itertools
import random

from lirdec.decomposition import Decomposition, verify
from lirdec.graphs import Multigraph, SimpleGraph


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
    """graph6 text of a graph on n <= 62 vertices, bit by bit: for j = 1..n-1
    and i < j, in that order, one bit for "is {i, j} an edge", padded with
    zeros to a multiple of six and written six bits per char, offset 63."""
    edges = {tuple(sorted(e)) for e in edge_set}
    bits = [1 if (i, j) in edges else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    chars = [
        chr(63 + int("".join(map(str, bits[t : t + 6])), 2))
        for t in range(0, len(bits), 6)
    ]
    return chr(63 + n) + "".join(chars)


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
