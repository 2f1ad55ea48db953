"""Property tests: every colorer's witness passes verify across the colorer's
stated range, on inputs whose vertex labels are permuted at random.

Examples are derandomized and bounded, so the suite stays deterministic.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from lirdec.bipartite import color_double_bipartite
from lirdec.colorers import color_double_auto, multipartite_states
from lirdec.decomposition import Decomposition, verify
from lirdec.graphs import (
    SimpleGraph,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    double,
    path_graph,
    wheel_graph,
)

from oracle import (
    color_double_complete,
    color_double_cycle,
    color_double_multipartite,
    color_double_path,
    color_double_wheel,
    color_t_family_3,
    t_family_members,
)

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None, database=None)

T_FAMILY = t_family_members(12)


@st.composite
def relabelled(draw, g: SimpleGraph) -> SimpleGraph:
    perm = draw(st.permutations(range(g.n)))
    return SimpleGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def assert_witness(g: SimpleGraph, d: Decomposition, colors: int = 2) -> None:
    assert d is not None
    assert d.host == double(g)
    assert d.k == colors
    assert verify(d).valid


@st.composite
def connected_bipartite(draw) -> SimpleGraph:
    """Sides X = 0..a-1 and Y = a..n-1; every x joins y0 = a, every other y
    joins a drawn x, and every further cross pair is kept with a drawn
    density."""
    n = draw(st.integers(3, 30))
    a = draw(st.integers(1, n - 1))
    edges = {(x, a) for x in range(a)}
    for y in range(a + 1, n):
        edges.add((draw(st.integers(0, a - 1)), y))
    density = draw(st.integers(0, 9)) / 10
    rng = draw(st.randoms(use_true_random=False))
    edges |= {(x, y) for x in range(a) for y in range(a, n) if rng.random() < density}
    return SimpleGraph(n, edges)


@PROPERTY
@given(st.integers(3, 400).flatmap(lambda n: relabelled(path_graph(n))))
def test_paths(g):
    assert_witness(g, color_double_auto(g))


@PROPERTY
@given(st.integers(3, 400).flatmap(lambda n: relabelled(cycle_graph(n))))
def test_cycles(g):
    assert_witness(g, color_double_auto(g))


@PROPERTY
@given(st.integers(5, 200).flatmap(lambda n: relabelled(wheel_graph(n))))
def test_wheels(g):
    assert_witness(g, color_double_auto(g))


@PROPERTY
@given(st.integers(3, 40).flatmap(lambda n: relabelled(complete_graph(n))))
def test_complete_graphs(g):
    assert_witness(g, color_double_auto(g))


part_sizes = st.lists(st.integers(1, 6), min_size=2, max_size=6).filter(
    lambda sizes: sum(sizes) >= 3
)


@PROPERTY
@given(part_sizes.flatmap(lambda sizes: relabelled(complete_multipartite_graph(sizes))))
def test_complete_multipartite_graphs(g):
    assert_witness(g, color_double_auto(g))


@PROPERTY
@given(part_sizes, st.data())
def test_multipartite_states_on_any_labels(sizes, data):
    labels = data.draw(st.permutations(range(sum(sizes))))
    parts, at = [], 0
    for size in sizes:
        parts.append(list(labels[at : at + size]))
        at += size
    g = SimpleGraph(
        at, [(u, v) for i, p in enumerate(parts) for q in parts[i + 1 :] for u in p for v in q]
    )
    assert_witness(g, Decomposition(double(g), 2, multipartite_states(g, parts)))


@PROPERTY
@given(connected_bipartite().flatmap(relabelled))
def test_bipartite_graphs(g):
    assert_witness(g, color_double_bipartite(g))
    assert_witness(g, color_double_auto(g))


@PROPERTY
@given(st.sampled_from(T_FAMILY).flatmap(lambda member: relabelled(member[0])))
def test_triangle_family_three_coloring(g):
    d = color_t_family_3(g)
    assert_witness(g, d, colors=3)


@PROPERTY
@given(st.integers(3, 60))
def test_canonical_class_colorers(n):
    for d in (
        color_double_path(n),
        color_double_cycle(n),
        color_double_wheel(n + 1),
        color_double_complete(min(n, 30)),
    ):
        assert verify(d).valid


@PROPERTY
@given(part_sizes)
def test_canonical_multipartite_colorer(sizes):
    assert verify(color_double_multipartite(sizes)).valid
