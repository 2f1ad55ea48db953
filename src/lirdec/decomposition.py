"""Edge-color decompositions of multigraphs and the local-irregularity verifier.

A decomposition splits each edge's multiplicity among k colors. Color 0 is
red and color 1 is blue by convention; a doubled edge therefore has three
states: RR (2,0), RB (1,1), BB (0,2).

Each witness is validated once, by the Decomposition constructor, and
verified once, by verify; each is a single pass over the edges. On a host
of more than _PER_EDGE_MAX edges the constructor checks length, sign and sum
once per distinct count vector, and per edge only coverage and the
multiplicity; a smaller host is checked edge by edge. verify makes one
degree pass, which re-checks every sum, and one conflict pass over all
colors. Nothing is trusted or cached between the two, and verify is the only
judge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from .graphs import Edge, Multigraph

# two-color states of a doubled edge
RR = (2, 0)
RB = (1, 1)
BB = (0, 2)

RED = 0
BLUE = 1


# Up to this many edges the per-edge checks are the faster route: the bulk
# pass's set-up costs more than it saves on small witnesses, such as the
# exact search's (measured on the benchmark's decide7 workload).
_PER_EDGE_MAX = 32


class Decomposition:
    """Per-edge color-count vectors summing to the edge multiplicity, kept
    in the host's edge order. A malformed assignment raises ValueError
    naming its first bad edge in that order."""

    __slots__ = ("host", "k", "assign")

    def __init__(self, host: Multigraph, k: int, assign: dict[Edge, tuple[int, ...]]):
        if k < 1:
            raise ValueError("need at least one color")
        edges = host.edges
        cleaned = None
        if len(edges) > _PER_EDGE_MAX and len(assign) == len(edges):
            try:
                cleaned = _checked_in_bulk(host, k, list(map(assign.get, edges)))
            except (KeyError, TypeError):  # left to the per-edge checks
                pass
        self.host = host
        self.k = k
        self.assign = _checked_by_edge(host, k, assign) if cleaned is None else cleaned

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Decomposition)
            and self.host == other.host
            and self.k == other.k
            and self.assign == other.assign
        )

    def __repr__(self) -> str:
        return f"Decomposition(n={self.host.n}, m={len(self.host.edges)}, k={self.k})"


@dataclass
class VerifyReport:
    """Conflicts found by verify(); empty means locally irregular."""

    conflicts: list[tuple[int, Edge, int]] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.conflicts


def color_degree_table(d: Decomposition) -> list[list[int]]:
    """All color degrees at once: table[v][c]."""
    table = [[0] * d.k for _ in range(d.host.n)]
    for (u, v), counts in d.assign.items():
        for c, cnt in enumerate(counts):
            if cnt:
                table[u][c] += cnt
                table[v][c] += cnt
    return table


def verify(d: Decomposition) -> VerifyReport:
    """Check that every color induces a locally irregular submultigraph.

    A conflict (c, {u,v}, deg) is recorded whenever edge {u,v} carries color
    c and both endpoints have the same color-c degree; conflicts are listed
    by color, then in edge order. Raises ValueError on a malformed
    decomposition (count sums not matching multiplicities).

    One degree pass over the assignment re-checks every sum (each distinct
    count vector is summed once); one conflict pass over the edges tests
    every color an edge carries.
    """
    k, assign, mult = d.k, d.assign, d.host.mult
    degrees = [[0] * d.host.n for _ in range(k)]  # degrees[c][v]
    seen: dict = {}  # count vector -> (its sum, its non-zero (color, count) pairs)
    for e, counts in assign.items():
        try:
            info = seen.get(counts)
        except TypeError:  # an unhashable count list
            info = None
        if info is None:
            info = sum(counts), tuple(filter(_count, enumerate(counts)))
            if type(counts) is tuple:
                seen[counts] = info
        if info[0] != mult[e]:
            raise ValueError(f"malformed decomposition at edge {e}")
        u, v = e
        for c, x in info[1]:
            dc = degrees[c]
            dc[u] += x
            dc[v] += x
    conflicts = []
    colors = range(k)
    for e in d.host.edges:
        counts = assign[e]
        u, v = e
        for c in colors:
            if counts[c] >= 1:
                dc = degrees[c]
                if dc[u] == dc[v]:
                    conflicts.append((c, e, dc[u]))
    conflicts.sort(key=_color)  # stable: edge order within each color
    return VerifyReport(conflicts)


_color = itemgetter(0)
_count = itemgetter(1)


def _checked_in_bulk(host: Multigraph, k: int, vectors: list) -> dict | None:
    """The assignment in edge order when every edge's entry in `vectors`
    (one per edge, from an assignment with no other entries) is a valid
    count vector; None when any check fails, for _checked_by_edge to name
    the first bad edge."""
    edges = host.edges
    if set(map(type, vectors)) != {tuple}:
        return None  # a missing entry, or counts to be turned into tuples
    sums = {}
    for counts in set(vectors):
        if len(counts) != k or min(counts) < 0:
            return None
        sums[counts] = sum(counts)
    mult = host.mult
    mults = list(mult.values()) if tuple(mult) == edges else list(map(mult.__getitem__, edges))
    if list(map(sums.__getitem__, vectors)) != mults:
        return None
    return dict(zip(edges, vectors))


def _checked_by_edge(host: Multigraph, k: int, assign) -> dict[Edge, tuple[int, ...]]:
    """The per-edge checks, in edge order: they name the first bad edge, and
    turn count lists into tuples."""
    cleaned: dict[Edge, tuple[int, ...]] = {}
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
        cleaned[e] = counts
    if len(assign) != len(host.edges):
        extra = set(assign) - set(host.edges)
        raise ValueError(f"assignment for non-edges: {sorted(extra)}")
    return cleaned
