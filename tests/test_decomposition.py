"""Decomposition invariants, color degrees, and the verifier."""

import collections
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lirdec.decomposition import (
    BB,
    BLUE,
    RB,
    RED,
    RR,
    Decomposition,
    verify,
)
from lirdec.graphs import Multigraph, SimpleGraph, cycle_graph, double, is_locally_irregular, path_graph

from oracle import (
    assignment_reference,
    color_class,
    color_degree_table,
    color_degree,
    colors_used,
    conflicts_by_definition,
    random_connected_graph,
    relabeled,
    vectors_summing_to,
    verify_reference,
)
from test_symmetry import small_multigraphs


def two_c3(states):
    """Doubled triangle a=0, b=1, c=2 with states on ab, bc, ca."""
    host = double(cycle_graph(3))
    return Decomposition(host, 2, {(0, 1): states[0], (1, 2): states[1], (0, 2): states[2]})


def test_conservation_enforced():
    host = double(path_graph(3))
    with pytest.raises(ValueError, match="counts sum"):
        Decomposition(host, 2, {(0, 1): (1, 0), (1, 2): BB})
    with pytest.raises(ValueError, match="no color assignment"):
        Decomposition(host, 2, {(0, 1): BB})
    with pytest.raises(ValueError, match="negative"):
        Decomposition(host, 2, {(0, 1): (3, -1), (1, 2): BB})
    with pytest.raises(ValueError, match="at least one color"):
        Decomposition(host, 0, {})


def test_color_degree_triangle_remark():
    # multiedges red, red-blue, blue around the triangle
    d = two_c3([RR, RB, BB])
    assert color_degree(d, 1, RED) == 3
    assert color_degree(d, 1, BLUE) == 1
    assert color_degree(d, 0, RED) == 2
    assert color_degree(d, 2, BLUE) == 3


def test_color_degree_all_blue_path():
    host = double(path_graph(3))
    d = Decomposition(host, 2, {(0, 1): BB, (1, 2): BB})
    assert color_degree(d, 1, RED) == 0
    assert color_degree(d, 1, BLUE) == 4


def test_color_degree_range_errors():
    d = two_c3([RR, RB, BB])
    with pytest.raises(ValueError, match="vertex"):
        color_degree(d, 3, RED)
    with pytest.raises(ValueError, match="color"):
        color_degree(d, 0, 2)


def test_verify_triangle_pattern_is_valid():
    assert verify(two_c3([RR, RB, BB])).valid


def test_verify_doubled_k2_all_red():
    host = double(path_graph(2))
    report = verify(Decomposition(host, 2, {(0, 1): RR}))
    assert report.conflicts == [(RED, (0, 1), 2)]


def test_verify_doubled_k2_red_blue():
    host = double(path_graph(2))
    report = verify(Decomposition(host, 2, {(0, 1): RB}))
    assert not report.valid
    assert len(report.conflicts) == 2
    assert {c for c, _, _ in report.conflicts} == {RED, BLUE}
    assert all(deg == 1 for _, _, deg in report.conflicts)


def test_doubled_k2_invalid_for_every_k():
    # endpoints of a lone multiedge tie in every color of every split
    host = double(path_graph(2))
    for k in range(1, 5):
        for counts in vectors_summing_to(2, k):
            d = Decomposition(host, k, {(0, 1): counts})
            assert not verify(d).valid


def test_degree_identity():
    rng = random.Random(7)
    for _ in range(25):
        g = random_connected_graph(6, rng.randrange(0, 6), rng)
        host = double(g)
        assign = {e: rng.choice([RR, RB, BB]) for e in host.edges}
        d = Decomposition(host, 2, assign)
        for v in range(g.n):
            total = sum(color_degree(d, v, c) for c in range(2))
            assert total == host.degree(v)


def test_color_degree_table_matches_pointwise():
    d = two_c3([RR, RB, BB])
    table = color_degree_table(d)
    for v in range(3):
        for c in range(2):
            assert table[v][c] == color_degree(d, v, c)


def test_verify_equals_per_class_irregularity():
    # valid iff every color class, viewed as a multigraph, is locally irregular
    rng = random.Random(21)
    for _ in range(60):
        g = random_connected_graph(5, rng.randrange(0, 5), rng)
        host = double(g)
        assign = {e: rng.choice([RR, RB, BB]) for e in host.edges}
        d = Decomposition(host, 2, assign)
        classwise = all(
            is_locally_irregular(cls)
            for c in range(2)
            if (cls := color_class(d, c)) is not None
        )
        assert verify(d).valid == classwise


@st.composite
def small_decompositions(draw) -> Decomposition:
    host = draw(small_multigraphs())
    k = draw(st.integers(1, 3))
    return Decomposition(host, k, {e: draw(st.sampled_from(vectors_summing_to(mu, k))) for e, mu in host.mult.items()})


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(small_decompositions())
def test_verify_agrees_with_the_definition(d):
    # the conflicts themselves, each reported once, not just the verdict
    report = verify(d)
    want = conflicts_by_definition(d)
    assert sorted(report.conflicts) == sorted(want)
    assert report.valid == (not want)


def test_colors_used():
    host = double(cycle_graph(3))
    d = Decomposition(host, 3, {(0, 1): (2, 0, 0), (1, 2): (1, 1, 0), (0, 2): (0, 2, 0)})
    assert colors_used(d) == 2


def test_relabeled():
    host = double(path_graph(3))
    d = Decomposition(host, 2, {(0, 1): RR, (1, 2): BB})
    other = double(SimpleGraph(3, [(0, 2), (1, 2)]))
    moved = relabeled(d, [0, 2, 1], other)
    assert moved.assign[(0, 2)] == RR
    assert moved.assign[(1, 2)] == BB


def test_verify_rejects_malformed():
    host = double(path_graph(3))
    d = Decomposition(host, 2, {(0, 1): RR, (1, 2): BB})
    d.vectors = ((1, 0),) + d.vectors[1:]  # simulate corruption behind the constructor
    with pytest.raises(ValueError, match="malformed"):
        verify(d)


def test_a_sequence_of_the_wrong_length_is_rejected():
    host = double(path_graph(3))
    for counts in ([RR], (RR, BB, RB)):
        with pytest.raises(ValueError, match=f"expected 2 count vectors, got {len(counts)}"):
            Decomposition(host, 2, counts)
    d = Decomposition(host, 2, [RR, BB])
    d.vectors = d.vectors[:1]  # corruption behind the constructor
    with pytest.raises(ValueError, match="malformed decomposition: 1 count vectors for 2 edges"):
        verify(d)


def test_decompositions_are_equal_on_host_colors_and_vectors_only():
    host = double(path_graph(3))
    d = Decomposition(host, 2, [RR, BB])
    assert d == Decomposition(double(path_graph(3)), 2, {(1, 2): BB, (0, 1): RR})
    assert d != Decomposition(host, 2, [BB, RR])
    assert d != Decomposition(host, 3, [(2, 0, 0), (0, 2, 0)])
    assert d != Decomposition(double(SimpleGraph(3, [(0, 1), (0, 2)])), 2, [RR, BB])
    assert d != "Decomposition"
    assert repr(d) == "Decomposition(n=3, m=2, k=2)"


def test_a_decomposition_has_no_instance_dict():
    # __slots__: a sweep keeps one witness per record
    d = Decomposition(double(path_graph(3)), 2, [RR, BB])
    assert not hasattr(d, "__dict__")
    with pytest.raises(AttributeError):
        d.extra = 1


def test_an_edge_carries_a_color_from_one_unit_on():
    # the constructor takes only int counts, but verify judges whatever
    # vectors a decomposition holds; as the reference does, it reads half a
    # unit as not carrying its color
    d = Decomposition(double(path_graph(2)), 2, [RB])
    d.vectors = ((1.5, 0.5),)
    assert verify(d).conflicts == verify_reference(d) == [(0, (0, 1), 1.5)]


@pytest.mark.parametrize("route", ["tuple", "mapping"])
@pytest.mark.parametrize("counts", [(1.5, 0.5), (2.0, 0), (True, True)], ids=["half", "float", "bool"])
def test_counts_that_are_not_ints_are_rejected_naming_the_edge(route, counts):
    # each has the edge's sum 2; the first edge is valid, so the second is named
    host = double(path_graph(3))
    vectors = [RR, counts]
    assign = dict(zip(host.edges, vectors))
    with pytest.raises(ValueError, match=r"^edge \(1, 2\): non-integer color count$"):
        Decomposition(host, 2, vectors if route == "tuple" else assign)
    with pytest.raises(ValueError, match=r"^edge \(1, 2\): non-integer color count$"):
        assignment_reference(host, 2, assign)


def test_vectors_of_a_tuple_subclass_become_plain_tuples():
    Pair = collections.namedtuple("Pair", "red blue")
    d = Decomposition(double(path_graph(3)), 2, [Pair(2, 0), Pair(0, 2)])
    assert d.vectors == (RR, BB)
    assert all(type(v) is tuple for v in d.vectors)


@pytest.mark.parametrize("counts", [[("2", "0"), BB], [BB, ("1", 1)]], ids=["strings", "mixed"])
def test_counts_that_do_not_compare_with_zero_fail_as_the_reference_does(counts):
    host = double(path_graph(3))
    with pytest.raises(TypeError) as got:
        Decomposition(host, 2, counts)
    with pytest.raises(TypeError) as want:
        assignment_reference(host, 2, dict(zip(host.edges, counts)))
    assert str(got.value) == str(want.value)


def test_isolated_vertices_never_conflict():
    g = SimpleGraph(4, [(0, 1)])  # vertices 2, 3 isolated
    host = Multigraph(g, {(0, 1): 2})
    d = Decomposition(host, 2, {(0, 1): RB})
    report = verify(d)
    assert all(e == (0, 1) for _, e, _ in report.conflicts)


def test_verifier_accepts_disconnected_hosts():
    # local irregularity is per component; connectivity is the colorers' job
    g = SimpleGraph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    host = double(g)
    d = Decomposition(
        host, 2, {(0, 1): BB, (1, 2): BB, (3, 4): RR, (4, 5): RR}
    )
    assert verify(d).valid


@pytest.mark.parametrize(
    "assign,message",
    [
        ({(0, 1): RR}, r"edge \(1, 2\) has no color assignment"),
        ({(0, 1): RR, (1, 2): (1, 1, 0)}, r"edge \(1, 2\): expected 2 counts, got 3"),
        ({(0, 1): (3, -1), (1, 2): BB}, r"edge \(0, 1\): negative color count"),
        ({(0, 1): (1, 0), (1, 2): BB}, r"edge \(0, 1\): counts sum 1 != multiplicity 2"),
        ({(0, 1): RR, (1, 2): BB, (0, 2): RB}, r"assignment for non-edges: \[\(0, 2\)\]"),
        ({(0, 1): RR, (1, 2): BB, (1, 0): RB}, r"assignment for non-edges: \[\(1, 0\)\]"),
    ],
    ids=["missing-edge", "count-length", "negative", "sum", "extra-non-edge", "non-canonical-extra"],
)
def test_each_decomposition_value_error(assign, message):
    with pytest.raises(ValueError, match=message):
        Decomposition(double(path_graph(3)), 2, assign)
