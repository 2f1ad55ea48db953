"""Connected graph catalogs up to isomorphism.

Canonical forms come from iterated degree refinement followed by a minimum
adjacency bitmask over the permutations consistent with the refined cells.
Enumeration augments each smaller catalog entry with one new vertex joined
to a nonempty neighbor set (every connected graph has a non-cut vertex, so
this reaches everything exactly once after deduplication).
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Iterable

from .graphs import SimpleGraph, bipartition_sides

ENUMERATION_LIMIT = 8
BIPARTITE_ENUMERATION_LIMIT = 10


def _refined_cells(g: SimpleGraph) -> list[list[int]]:
    """Order-invariant vertex partition: iterated neighbor-degree refinement."""
    colors = [g.degree(v) for v in range(g.n)]
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[w] for w in g.adj[v])))
            for v in range(g.n)
        ]
        ranking = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new_colors = [ranking[sigs[v]] for v in range(g.n)]
        # a sig extends its vertex's color, so an equal count is an equal
        # partition, and the ranks keep the colors' order
        if len(set(new_colors)) == len(set(colors)):
            break
        colors = new_colors
    cells: dict[int, list[int]] = {}
    for v in range(g.n):
        cells.setdefault(colors[v], []).append(v)
    return [cells[c] for c in sorted(cells)]


def canonical_key(g: SimpleGraph) -> tuple[int, int]:
    """(n, minimum adjacency bitmask) over refinement-consistent relabelings."""
    n = g.n
    cells = _refined_cells(g)
    edges = g.edges
    best = None
    for parts in itertools.product(*(itertools.permutations(c) for c in cells)):
        order = [v for part in parts for v in part]
        pos = [None] * n  # each entry is set below
        for i, v in enumerate(order):
            pos[v] = i
        mask = 0
        for u, v in edges:
            a, b = pos[u], pos[v]
            if a > b:
                a, b = b, a
            mask |= 1 << (a * n + b)
        if best is None or mask < best:
            best = mask
    return (n, best)


def _one_more_vertex(reps: Iterable[SimpleGraph], pools: Callable) -> list[SimpleGraph]:
    """The next order's catalog: each graph of reps joined to one new vertex
    by every nonempty subset of each of its pools(g), the first graph of
    each canonical key kept, in key order."""
    seen: dict[tuple[int, int], SimpleGraph] = {}
    for g in reps:
        base = list(g.edges)
        for pool in pools(g):
            for r in range(len(pool)):
                for subset in itertools.combinations(pool, r + 1):
                    h = SimpleGraph(g.n + 1, base + [(u, g.n) for u in subset])
                    seen.setdefault(canonical_key(h), h)
    return [seen[k] for k in sorted(seen)]


_catalog_memo: dict[int, tuple[SimpleGraph, ...]] = {}


def enumerate_connected(n: int) -> list[SimpleGraph]:
    """Every connected simple graph on n vertices, once up to isomorphism."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > ENUMERATION_LIMIT:
        raise ValueError(
            f"built-in enumeration supports n <= {ENUMERATION_LIMIT}; "
            "ingest a graph6 file for larger orders"
        )
    reps = (SimpleGraph(1, []),)
    for size in range(2, n + 1):
        if size not in _catalog_memo:
            _catalog_memo[size] = tuple(_one_more_vertex(reps, lambda g: [range(g.n)]))
        reps = _catalog_memo[size]
    return list(reps)


def enumerate_connected_bipartite(n: int) -> list[SimpleGraph]:
    """Every connected bipartite graph on n vertices, once up to isomorphism."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > BIPARTITE_ENUMERATION_LIMIT:
        raise ValueError(
            f"bipartite enumeration supports n <= {BIPARTITE_ENUMERATION_LIMIT}"
        )
    reps = [SimpleGraph(1, [])]
    for _ in range(n - 1):
        # every catalog graph is connected and bipartite: its sides are pools
        reps = _one_more_vertex(reps, bipartition_sides)
    return reps


def random_connected_bipartite(n: int, rng: random.Random) -> SimpleGraph:
    """Seeded random connected bipartite graph on n vertices.

    Builds a spanning tree alternating across a random bipartition, then
    adds each other cross edge with probability 0.3.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    sides = [0, 1]
    for _ in range(n - 2):
        sides.append(rng.randrange(2))
    edges = set()
    placed_by_side: dict[int, list[int]] = {0: [], 1: []}
    for v, s in enumerate(sides):
        other = placed_by_side[1 - s]  # empty only for vertex 0: vertex 1 is opposite
        if other:
            edges.add(tuple(sorted((v, rng.choice(other)))))
        placed_by_side[s].append(v)
    for u in placed_by_side[0]:
        for v in placed_by_side[1]:
            e = tuple(sorted((u, v)))
            if e not in edges and rng.random() < 0.3:
                edges.add(e)
    return SimpleGraph(n, edges)
