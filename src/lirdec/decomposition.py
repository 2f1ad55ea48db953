"""Edge-color decompositions of multigraphs and the local-irregularity verifier.

A decomposition splits each edge's multiplicity among k colors. Color 0 is
red and color 1 is blue by convention; a doubled edge therefore has three
states: RR (2,0), RB (1,1), BB (0,2).

A witness is a tuple of count vectors in the host's edge order, validated
once by the Decomposition constructor and verified once by verify. A list or
tuple in edge order, as the colorers and the solver hand over, and a mapping
from edges, as public callers give, read in edge order, take one route: a
check once per distinct vector plus one pass over its count types and sums
(counts are ints, not bools), and edge by edge when that fails, naming the
first bad edge. A mapping's keys that are not edges are named after that.
verify zips the edges with the vectors in one degree pass, which re-checks
every sum, and one conflict pass. Nothing is trusted or cached between the
two, and verify is the only judge.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .graphs import Edge, Multigraph

# two-color states of a doubled edge
RR = (2, 0)
RB = (1, 1)
BB = (0, 2)

RED = 0
BLUE = 1


class Decomposition:
    """Per-edge color-count vectors summing to the edge multiplicity, kept
    in the host's edge order as `vectors`. `counts` maps edges to vectors,
    or is a list or tuple of vectors in edge order. A malformed one raises
    ValueError naming its first bad edge in that order."""

    __slots__ = ("host", "k", "vectors")

    def __init__(self, host: Multigraph, k: int, counts: Mapping[Edge, Sequence[int]] | Sequence):
        if k < 1:
            raise ValueError("need at least one color")
        edges = host.edges
        if isinstance(counts, (list, tuple)):
            vectors = tuple(counts)
            if len(vectors) != len(edges):
                raise ValueError(f"expected {len(edges)} count vectors, got {len(vectors)}")
        else:
            vectors = tuple(map(counts.get, edges))  # None for a missing edge
        if not _valid_in_bulk(host, k, vectors):
            vectors = _checked_by_edge(host, k, vectors)
        if len(counts) != len(edges):  # a mapping with keys that are not edges
            extra = set(counts) - set(edges)
            raise ValueError(f"assignment for non-edges: {sorted(extra)}")
        self.host = host
        self.k = k
        self.vectors: tuple[tuple[int, ...], ...] = vectors

    @property
    def assign(self) -> Mapping[Edge, tuple[int, ...]]:
        """Read-only view of each edge's count vector, in edge order."""
        return MappingProxyType(dict(zip(self.host.edges, self.vectors)))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Decomposition)
            and self.host == other.host
            and self.k == other.k
            and self.vectors == other.vectors
        )

    def __repr__(self) -> str:
        return f"Decomposition(n={self.host.n}, m={len(self.host.edges)}, k={self.k})"


class VerifyReport(NamedTuple):
    """Conflicts found by verify(); empty means locally irregular."""

    conflicts: list[tuple[int, Edge, int]]

    @property
    def valid(self) -> bool:
        return not self.conflicts


def verify(d: Decomposition) -> VerifyReport:
    """Check that every color induces a locally irregular submultigraph.

    A conflict (c, {u,v}, deg) is recorded whenever edge {u,v} carries color
    c and both endpoints have the same color-c degree; conflicts are listed
    by color, then in edge order. Raises ValueError on a malformed
    decomposition (count sums not matching multiplicities).

    One degree pass zips the edges with the vectors and re-checks every sum,
    reading each distinct vector's sum and colors once; one conflict pass
    tests every color an edge carries.
    """
    edges, vectors, mult = d.host.edges, d.vectors, d.host.mult
    if len(vectors) != len(edges):
        raise ValueError(f"malformed decomposition: {len(vectors)} count vectors for {len(edges)} edges")
    degrees = [[0] * d.host.n for _ in range(d.k)]  # degrees[c][v]
    seen: dict = {}  # count vector -> _vector_info
    carried = []  # per edge, the colors it carries
    for e, counts in zip(edges, vectors):
        try:
            info = seen[counts]
        except KeyError:
            info = seen[counts] = _vector_info(counts)
        except TypeError:  # a count list
            info = _vector_info(counts)
        if info[0] != mult[e]:
            raise ValueError(f"malformed decomposition at edge {e}")
        carried.append(info[2])
        u, v = e
        for c, x in info[1]:
            dc = degrees[c]
            dc[u] += x
            dc[v] += x
    conflicts = []
    for e, colors in zip(edges, carried):
        u, v = e
        for c in colors:
            dc = degrees[c]
            if dc[u] == dc[v]:
                conflicts.append((c, e, dc[u]))
    conflicts.sort(key=_color)  # stable: edge order within each color
    return VerifyReport(conflicts)


_color = itemgetter(0)
_count = itemgetter(1)


def _vector_info(counts) -> tuple:
    """A count vector's sum, its non-zero (color, count) pairs, and the
    colors it carries (count >= 1)."""
    pairs = tuple(filter(_count, enumerate(counts)))
    return sum(counts), pairs, [c for c, x in pairs if x >= 1]


def _valid_in_bulk(host: Multigraph, k: int, vectors: tuple) -> bool:
    """Whether vectors, one per edge in edge order, are plain tuples of k
    non-negative int counts summing to each edge's multiplicity: every
    count's type is checked, each distinct vector's length and sign once.
    False on any fault, for _checked_by_edge to name the first bad edge."""
    if set(map(type, vectors)) - {tuple}:
        return False  # a missing entry, or counts to be turned into tuples
    if set(map(type, chain.from_iterable(vectors))) - {int}:
        return False  # per edge: (2.0, 0) and (2, 0) are one distinct vector
    sums = {}
    for counts in set(vectors):
        if len(counts) != k or min(counts) < 0:
            return False
        sums[counts] = sum(counts)
    mult, edges = host.mult, host.edges
    mults = mult.values() if tuple(mult) == edges else map(mult.__getitem__, edges)
    return list(map(sums.__getitem__, vectors)) == list(mults)


def _checked_by_edge(host: Multigraph, k: int, entries) -> tuple[tuple[int, ...], ...]:
    """The per-edge checks on entries, one per edge in edge order (None for
    a missing one): they name the first bad edge, and turn count lists into
    tuples."""
    vectors = []
    for e, counts in zip(host.edges, entries):
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
        if set(map(type, counts)) - {int}:
            raise ValueError(f"edge {e}: non-integer color count")
        vectors.append(counts)
    return tuple(vectors)
