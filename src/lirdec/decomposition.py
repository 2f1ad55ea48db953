"""Edge-color decompositions of multigraphs and the local-irregularity verifier.

A decomposition splits each edge's multiplicity among k colors. Color 0 is
red and color 1 is blue by convention; a doubled edge therefore has three
states: RR (2,0), RB (1,1), BB (0,2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection

from .graphs import Edge, Multigraph

# two-color states of a doubled edge
RR = (2, 0)
RB = (1, 1)
BB = (0, 2)

RED = 0
BLUE = 1


class Decomposition:
    """Per-edge color-count vectors summing to the edge multiplicity."""

    __slots__ = ("host", "k", "assign")

    def __init__(self, host: Multigraph, k: int, assign: dict[Edge, tuple[int, ...]]):
        if k < 1:
            raise ValueError("need at least one color")
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
        self.host = host
        self.k = k
        self.assign = cleaned

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
    return _degree_table(d.host.n, d.k, d.assign)


def _degree_table(n: int, k: int, assign: dict[Edge, tuple[int, ...]]) -> list[list[int]]:
    table = [[0] * k for _ in range(n)]
    for (u, v), counts in assign.items():
        for c, cnt in enumerate(counts):
            if cnt:
                table[u][c] += cnt
                table[v][c] += cnt
    return table


def color_conflicts(
    n: int, k: int, assign: dict[Edge, tuple[int, ...]], edges: Collection[Edge]
) -> list[tuple[int, Edge, int]]:
    """The verifier's conflict scan on a bare assignment over vertices 0..n-1:
    (c, {u,v}, deg) for every listed edge carrying color c whose endpoints
    have the same color-c degree, by color, then in the order of `edges`."""
    table = _degree_table(n, k, assign)
    conflicts = []
    for c in range(k):
        for e in edges:
            if assign[e][c] >= 1:
                u, v = e
                if table[u][c] == table[v][c]:
                    conflicts.append((c, e, table[u][c]))
    return conflicts


def verify(d: Decomposition) -> VerifyReport:
    """Check that every color induces a locally irregular submultigraph.

    A conflict (c, {u,v}, deg) is recorded whenever edge {u,v} carries color
    c and both endpoints have the same color-c degree. Raises ValueError on a
    malformed decomposition (count sums not matching multiplicities).
    """
    for e, counts in d.assign.items():
        if sum(counts) != d.host.mult[e]:
            raise ValueError(f"malformed decomposition at edge {e}")
    return VerifyReport(color_conflicts(d.host.n, d.k, d.assign, d.host.edges))
