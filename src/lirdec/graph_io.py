"""Graph and decomposition serialization.

Formats:
  - graph6: 63-offset ASCII, upper-triangle bit order (column by column).
  - edge list: one "u v" pair per line, 0-based vertex ids.
  - JSON decomposition: {"n":..,"k":..,"edges":[{"u":..,"v":..,"counts":[..]}]}.
  - DOT: one parallel edge statement per color unit; palette red/blue/purple.
"""

from __future__ import annotations

import binascii
import json
from itertools import compress
from typing import Iterator

from .decomposition import Decomposition
from .graphs import Multigraph, SimpleGraph, _assemble, canon_edge

DOT_COLORS = ("red", "blue", "purple")


class Graph6Error(ValueError):
    """Raised on malformed graph6 input; read_graph6_lines starts the
    message with the offending line number."""


def _g6_read_n(data: str) -> tuple[int, int]:
    """Decode the leading vertex count; returns (n, chars consumed)."""
    if not data:
        raise Graph6Error("empty graph6 string")
    n = ord(data[0]) - 63
    if 0 <= n < 63:
        return n, 1
    if n != 63:
        raise Graph6Error(f"invalid graph6 size byte {data[0]!r}")
    if len(data) < 4 or data[1] == "~":  # '~' prefix: 18-bit form, n <= 258047
        raise Graph6Error("unsupported or truncated graph6 size field")
    vals = [ord(ch) - 63 for ch in data[1:4]]
    if any(v < 0 or v > 63 for v in vals):
        raise Graph6Error("invalid graph6 size field")
    return (vals[0] << 12) | (vals[1] << 6) | vals[2], 4


def parse_graph6(text: str) -> SimpleGraph:
    """Decode one graph6 string into a SimpleGraph.

    The body is read the way to_graph6 writes it, through base64: one 0/1
    byte per vertex pair, which selects the pairs that are edges. Each pair
    (i, j) has i < j < n and comes once, so the graph is assembled without
    SimpleGraph's per-edge checks; the text itself is checked in full.
    """
    data = text.strip()
    if data.startswith(">>graph6<<"):
        data = data[len(">>graph6<<"):]
    n, offset = _g6_read_n(data)
    body = data[offset:]
    count = n * (n - 1) // 2
    need_chars = (count + 5) // 6
    if len(body) != need_chars:
        raise Graph6Error(f"graph6 body for n={n} needs {need_chars} chars, got {len(body)}")
    if body and (min(body) < "?" or max(body) > "~"):
        bad = next(ch for ch in body if not "?" <= ch <= "~")
        raise Graph6Error(f"invalid graph6 character {bad!r}")
    # "?" pads the body to whole 4-digit base64 groups; the bits past count are padding
    raw = binascii.a2b_base64((body + "?" * (-need_chars % 4)).encode().translate(_G6_TO_BASE64))
    bits = f"{int.from_bytes(raw, 'big'):0{8 * len(raw)}b}"[:count].encode().translate(_ZERO_ONE)
    pairs = _PAIRS if n <= 62 else ((i, j) for j in range(n) for i in range(j))
    return _assemble(SimpleGraph.__new__(SimpleGraph), n, sorted(compress(pairs, bits)))


def to_graph6(g: SimpleGraph) -> str:
    """Encode a SimpleGraph as a graph6 string (n <= 62)."""
    if g.n > 62:
        raise ValueError("graph6 emission supports at most 62 vertices")
    # bit j(j-1)/2 + i, counted from the top, is set when {i, j} is an edge;
    # the bits are padded to whole 24-bit groups, which base64 turns into
    # whole 6-bit digits, the first count/6 of them graph6's
    count = g.n * (g.n - 1) // 2
    bits = bytearray(b"0") * (count + -count % 24)
    for i, j in g.edges:
        bits[j * (j - 1) // 2 + i] = 49  # "1"
    raw = int(bits or b"0", 2).to_bytes(len(bits) // 8, "big")
    body = binascii.b2a_base64(raw, newline=False)[: (count + 5) // 6]
    return chr(63 + g.n) + body.translate(_BASE64_TO_G6).decode("ascii")


_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_BASE64_TO_G6 = bytes.maketrans(_BASE64, bytes(range(63, 127)))
_G6_TO_BASE64 = bytes.maketrans(bytes(range(63, 127)), _BASE64)
_ZERO_ONE = bytes.maketrans(b"01", b"\0\1")
# the vertex pairs in graph6 bit order, (0, 1), (0, 2), (1, 2), (0, 3), ...:
# the first n(n-1)/2 of them are the pairs of order n, up to the short form's 62
_PAIRS = tuple((i, j) for j in range(62) for i in range(j))


def read_graph6_lines(text: str) -> Iterator[SimpleGraph]:
    """Parse a graph6 file: one graph per non-empty line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.strip():
            try:
                g = parse_graph6(raw)
            except Graph6Error as exc:
                raise Graph6Error(f"line {lineno}: {exc}") from None
            yield g


def parse_edge_list(text: str) -> SimpleGraph:
    """Parse "u v" lines (0-based); n is one past the largest vertex id."""
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer vertex in {raw!r}") from None
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: negative vertex id")
        edges.append((u, v))
    if not edges:
        raise ValueError("edge list is empty")
    return SimpleGraph(1 + max(map(max, edges)), edges)


def decomposition_to_json(d: Decomposition) -> str:
    """Serialize a decomposition; byte-stable across runs.

    Writes the text directly: it equals json.dumps of the payload with
    sorted keys and compact separators, without building the payload. The
    edges are zipped with their count vectors; each edge's text is its
    vector's text, then its two vertex names.
    """
    edges, vectors = d.host.edges, d.vectors
    heads = {c: '{"counts":[%s],"u":' % ",".join(map(str, c)) for c in set(vectors)}
    names = list(map(str, range(d.host.n)))
    body = ",".join([f'{heads[s]}{names[u]},"v":{names[v]}}}' for (u, v), s in zip(edges, vectors)])
    return f'{{"edges":[{body}],"k":{d.k},"n":{d.host.n}}}'


def _ints(*values) -> bool:
    return all(type(v) is int for v in values)  # bool is not a count


def decomposition_from_json(text: str) -> Decomposition:
    """Rebuild a decomposition (and its host multigraph) from JSON.

    Raises ValueError unless the payload is an object with int n and k and a
    list of edges, each an object with int u and v and a list of int counts,
    and no edge listed twice.
    """
    payload = json.loads(text)
    if not (
        isinstance(payload, dict)
        and _ints(payload.get("n"), payload.get("k"))
        and isinstance(payload.get("edges"), list)
    ):
        raise ValueError("expected an object with int n, int k and a list of edges")
    n = payload["n"]
    k = payload["k"]
    assign = {}
    mult = {}
    for rec in payload["edges"]:
        if not (
            isinstance(rec, dict)
            and _ints(rec.get("u"), rec.get("v"))
            and isinstance(rec.get("counts"), list)
            and _ints(*rec["counts"])
        ):
            raise ValueError(f"edge {rec!r} needs int u and v and a list of int counts")
        e = canon_edge(rec["u"], rec["v"])
        if e in assign:
            raise ValueError(f"edge {e} listed twice")
        counts = tuple(rec["counts"])
        assign[e] = counts
        mult[e] = sum(counts)
    host = Multigraph(SimpleGraph(n, assign.keys()), mult)
    return Decomposition(host, k, assign)


def decomposition_to_dot(d: Decomposition) -> str:
    """Emit DOT with one parallel edge statement per color unit.

    A doubled edge shows as two red lines (RR), two blue (BB), or one of
    each (RB); a third color renders purple.
    """
    lines = ["graph decomposition {"]
    for v in range(d.host.n):
        lines.append(f"  {v};")
    for (u, v), counts in zip(d.host.edges, d.vectors):
        for c, cnt in enumerate(counts):
            color = DOT_COLORS[c] if c < len(DOT_COLORS) else f"gray{30 + c * 10}"
            for _ in range(cnt):
                lines.append(f'  {u} -- {v} [color="{color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
