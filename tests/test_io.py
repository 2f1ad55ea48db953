"""graph6, edge-list, JSON, and DOT serialization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lirdec.decomposition import BB, RB, RR, Decomposition
from lirdec.graph_io import (
    Graph6Error,
    decomposition_from_json,
    decomposition_to_dot,
    decomposition_to_json,
    parse_edge_list,
    parse_graph6,
    read_graph6_lines,
    to_graph6,
)
from lirdec.graphs import SimpleGraph, cycle_graph, double, path_graph

from oracle import graph6_reference, random_connected_graph
import random


def test_known_graph6_strings():
    # hand-computed from the published format: 63-offset, upper-triangle bits
    assert to_graph6(cycle_graph(3)) == "Bw"  # K3: bits 111000 -> 56+63='w'
    assert to_graph6(path_graph(3)) == "Bg"  # P3 edges 01,12: bits 101000
    k3 = parse_graph6("Bw")
    assert k3.n == 3 and set(k3.edges) == {(0, 1), (0, 2), (1, 2)}


def test_graph6_header_is_stripped():
    g = parse_graph6(">>graph6<<Bw")
    assert g.m == 3


def test_graph6_round_trip_random():
    rng = random.Random(5)
    for _ in range(40):
        g = random_connected_graph(rng.randrange(1, 12), rng.randrange(0, 8), rng)
        assert parse_graph6(to_graph6(g)) == g


def test_graph6_round_trip_boundaries():
    # single vertex, and the 62-vertex emission ceiling
    assert to_graph6(SimpleGraph(1, [])) == "@"
    big = cycle_graph(62)
    assert parse_graph6(to_graph6(big)) == big
    with pytest.raises(ValueError, match="62"):
        to_graph6(cycle_graph(63))


def test_graph6_large_n_parse():
    # 3-byte size form: '~' prefix
    text = "~" + chr(63) + chr(64) + chr(63)  # n = 64
    g64 = SimpleGraph(64, [(0, 1)])
    body_bits = 64 * 63 // 2
    chars = (body_bits + 5) // 6
    bits = 1 << (body_bits - 1)  # only the (0,1) bit set
    bits <<= chars * 6 - body_bits
    body = "".join(
        chr(63 + ((bits >> shift) & 0x3F)) for shift in range(chars * 6 - 6, -6, -6)
    )
    parsed = parse_graph6(text + body)
    assert parsed == g64


def test_graph6_matches_reference_implementation():
    nx = pytest.importorskip("networkx")
    rng = random.Random(1)
    for _ in range(120):
        g = random_connected_graph(rng.randrange(1, 40), rng.randrange(0, 30), rng)
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        reference = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert to_graph6(g) == reference


def test_graph6_matches_bitwise_reference():
    # to_graph6 sets bits from the edge list; the reference tests every pair
    rng = random.Random(62)
    for n in [0, 1, 2, 61, 62] + [rng.randrange(2, 63) for _ in range(60)]:
        pairs = [(i, j) for j in range(1, n) for i in range(j)]
        edges = rng.sample(pairs, rng.randrange(len(pairs) + 1))
        g = SimpleGraph(n, edges)
        assert to_graph6(g) == graph6_reference(n, edges)
        assert parse_graph6(to_graph6(g)) == g


def test_graph6_error_carries_line_number():
    with pytest.raises(Graph6Error, match="line 2"):
        list(read_graph6_lines("Bw\nB"))


def test_graph6_rejects_bad_characters():
    with pytest.raises(Graph6Error):
        parse_graph6("B\x01\x02")


def test_edge_list_parse():
    g = parse_edge_list("0 1\n1 2\n\n# comment\n2 3\n")
    assert g == path_graph(4)
    with pytest.raises(ValueError, match="line 1"):
        parse_edge_list("0 1 2\n")
    with pytest.raises(ValueError, match="empty"):
        parse_edge_list("\n")


def test_decomposition_json_round_trip():
    host = double(cycle_graph(3))
    d = Decomposition(host, 2, {(0, 1): RR, (1, 2): RB, (0, 2): BB})
    text = decomposition_to_json(d)
    back = decomposition_from_json(text)
    assert back == d
    assert decomposition_to_json(back) == text  # byte stable


def test_decomposition_json_equals_sorted_dumps_random():
    # the direct writer must give exactly the bytes of json.dumps over the
    # payload it replaced, and read back to the same decomposition
    import json

    from lirdec.graphs import Multigraph

    rng = random.Random(20221808)
    for trial in range(300):
        n = rng.randint(1, 70)
        g = random_connected_graph(n, rng.randint(0, 2 * n), rng)
        host = Multigraph(g, {e: rng.randint(1, 3) for e in g.edges})
        k = rng.randint(1, 4)
        assign = {}
        for e in g.edges:
            counts = [0] * k
            for _ in range(host.mult[e]):
                counts[rng.randrange(k)] += 1
            assign[e] = tuple(counts)
        d = Decomposition(host, k, assign)
        old_payload = {
            "n": n,
            "k": k,
            "edges": [
                {"u": u, "v": v, "counts": list(assign[(u, v)])} for u, v in g.edges
            ],
        }
        text = decomposition_to_json(d)
        assert text == json.dumps(old_payload, sort_keys=True, separators=(",", ":"))
        assert decomposition_from_json(text) == d


def test_decomposition_json_three_colors():
    host = double(path_graph(3))
    d = Decomposition(host, 3, {(0, 1): (2, 0, 0), (1, 2): (0, 0, 2)})
    back = decomposition_from_json(decomposition_to_json(d))
    assert back.k == 3 and back.assign[(1, 2)] == (0, 0, 2)


def test_dot_parallel_edges_per_color_unit():
    host = double(path_graph(3))
    d = Decomposition(host, 2, {(0, 1): RR, (1, 2): RB})
    dot = decomposition_to_dot(d)
    assert dot.count('0 -- 1 [color="red"]') == 2
    assert dot.count('1 -- 2 [color="red"]') == 1
    assert dot.count('1 -- 2 [color="blue"]') == 1
    assert dot.startswith("graph decomposition {")


def test_dot_third_color_is_purple():
    host = double(path_graph(3))
    d = Decomposition(host, 3, {(0, 1): (0, 0, 2), (1, 2): (2, 0, 0)})
    assert 'color="purple"' in decomposition_to_dot(d)


@st.composite
def graphs_up_to_90_vertices(draw) -> tuple[int, set]:
    n = draw(st.integers(0, 90))
    if n < 2:
        return n, set()
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return n, {tuple(sorted(e)) for e in draw(st.lists(pair, max_size=3 * n))}


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(graphs_up_to_90_vertices())
def test_graph6_round_trip_property(spec):
    # the long "~" size form above 62 vertices is read; emission stops at 62
    n, edges = spec
    g = SimpleGraph(n, edges)
    text = graph6_reference(n, edges)
    assert parse_graph6(text) == g
    if n <= 62:
        assert to_graph6(g) == text
    else:
        assert text.startswith("~")
        with pytest.raises(ValueError, match="62"):
            to_graph6(g)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty graph6 string"),
        (">>graph6<<", "empty graph6 string"),
        ("~", "unsupported or truncated graph6 size field"),
        ("~??", "unsupported or truncated graph6 size field"),
        ("~~??????", "unsupported or truncated graph6 size field"),
        ("~?>?", "invalid graph6 size field"),
        ("~??~", "graph6 body for n=63 needs 326 chars, got 0"),
        # the size field is three digits: the fourth is the body's first
        ("~?@?\x7f" + "?" * 335, "invalid graph6 character '\\x7f'"),
        ("~??\x7f", "invalid graph6 size field"),
        ("~\x7f??", "invalid graph6 size field"),
        (">", "invalid graph6 size byte '>'"),
        ("\x7f", "invalid graph6 size byte '\\x7f'"),
        ("\x7fBw", "invalid graph6 size byte '\\x7f'"),
        ("B\x7f", "invalid graph6 character '\\x7f'"),
        ("B>", "invalid graph6 character '>'"),
        ("Bww", "graph6 body for n=3 needs 1 chars, got 2"),
        # the long form's top digit counts 4096 vertices
        ("~@??", "graph6 body for n=4096 needs 1397760 chars, got 0"),
        ("~?@?", "graph6 body for n=64 needs 336 chars, got 0"),
    ],
)
def test_each_graph6_error_message(text, message):
    with pytest.raises(Graph6Error) as got:
        parse_graph6(text)
    assert str(got.value).startswith(message)
    # the file reader names the line, counting blank ones; a blank line
    # holds no graph
    lines = "Bw\n\n" * 3 + text + "\nBw"
    if not text.strip():
        assert len(list(read_graph6_lines(lines))) == 4
        return
    with pytest.raises(Graph6Error) as got:
        list(read_graph6_lines(lines))
    assert str(got.value).startswith(f"line 7: {message}")


def test_the_long_size_form_reads_each_of_its_digits():
    assert parse_graph6("~??@") == SimpleGraph(1, [])
    assert parse_graph6("~?@?" + "?" * 336) == SimpleGraph(64, [])
    assert parse_graph6("~?AA" + "?" * 1398) == SimpleGraph(130, [])


def test_dot_names_every_color_and_closes_the_graph():
    from lirdec.graphs import Multigraph

    host = Multigraph(SimpleGraph(3, [(0, 1)]), {(0, 1): 6})
    d = Decomposition(host, 5, [(1, 1, 1, 2, 1)])
    assert decomposition_to_dot(d) == (
        "graph decomposition {\n  0;\n  1;\n  2;\n"
        '  0 -- 1 [color="red"];\n  0 -- 1 [color="blue"];\n  0 -- 1 [color="purple"];\n'
        '  0 -- 1 [color="gray60"];\n  0 -- 1 [color="gray60"];\n  0 -- 1 [color="gray70"];\n'
        "}\n"
    )


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 1\n1\n", "line 2: expected 'u v', got '1'"),
        ("0 1\n\n1 2 3\n", "line 3: expected 'u v', got '1 2 3'"),
        ("0 1\n1 x\n", "line 2: non-integer vertex in '1 x'"),
        ("0 1.5\n", "line 1: non-integer vertex in '0 1.5'"),
        ("# one edge\n0 1\n-1 2\n", "line 3: negative vertex id"),
        ("2 -3\n", "line 1: negative vertex id"),
        ("0 1\n2 -1\n", "line 2: negative vertex id"),
        ("# nothing\n\n", "edge list is empty"),
        ("0 0\n", "loop at vertex 0 not allowed"),
    ],
)
def test_each_edge_list_error_message(text, message):
    with pytest.raises(ValueError) as got:
        parse_edge_list(text)
    assert str(got.value) == message


def test_an_edge_list_spans_its_largest_vertex_id():
    assert parse_edge_list("  3 1  \n# 9 9\n") == SimpleGraph(4, [(1, 3)])
    assert parse_edge_list("0 1") == path_graph(2)


def test_graph6_reads_every_body_digit_and_skips_blank_lines():
    assert parse_graph6("C~") == SimpleGraph(4, [(i, j) for j in range(4) for i in range(j)])
    assert parse_graph6("C?") == SimpleGraph(4, [])
    assert list(read_graph6_lines("Bw\n\n  \nBg\n")) == [cycle_graph(3), path_graph(3)]
    with pytest.raises(Graph6Error, match="^line 4: "):
        list(read_graph6_lines("Bw\n\n  \nB\n"))
