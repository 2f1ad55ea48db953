"""Twin lex-leader constraints and backjumping change node counts only.

Both exact engines are checked against oracle.reference_exact_search, the
same search with chronological backtracking and without vertex symmetry
breaking; the doubled-mode engine also against the same chronological
search with the twin checks (twins=True), the solver before
conflict-directed backjumping. The status, color count and witness must
match, and the nodes can only drop.
"""

import hashlib
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lirdec.classify import classify
from lirdec.colorers import color_double_auto
from lirdec.graph_io import parse_graph6, read_graph6_lines
from lirdec.graphs import (
    Multigraph,
    SimpleGraph,
    complete_graph,
    cycle_graph,
    double,
)
from lirdec.solver import (
    SearchLimits,
    SearchStatus,
    _plan,
    exact_lir_graph,
    exact_lir_multigraph,
    is_decomposable,
)

from oracle import bowtie_graph, plan_steps, reference_exact_search

DATA = Path(__file__).resolve().parent.parent / "bench" / "data"


def data_graphs(name: str) -> list[SimpleGraph]:
    return list(read_graph6_lines((DATA / name).read_text()))


def assert_same_answer(got, want):
    assert (got.status, got.colors) == (want.status, want.colors)
    assert (got.witness is None) == (want.witness is None)
    if got.found:
        assert got.witness.assign == want.witness.assign
    assert got.nodes <= want.nodes


def plan_of(host) -> tuple[list, list, list]:
    """The edges, backchecks and twin checks of _plan's steps, each as a
    list over the steps, with vertices in place of rows (oracle.plan_steps);
    host is a Multigraph or a SimpleGraph."""
    steps = plan_steps(host if isinstance(host, Multigraph) else Multigraph(host))
    return [e for e, _, _ in steps], [checks for _, checks, _ in steps], [twins for _, _, twins in steps]


def test_star_leaves_are_false_twins():
    # edges (0,1), (0,2), (0,3) at positions 0, 1, 2; leaves 1, 2, 3 share
    # N = {0}, so (1 2) swaps positions 0 and 1, and (2 3) swaps 1 and 2
    star = SimpleGraph(4, [(0, 1), (0, 2), (0, 3)])
    edges, _, twins = plan_of(star)
    assert edges == [(0, 1), (0, 2), (0, 3)]
    assert twins == [(), (((0, 1),),), (((1, 2),),)]
    # a transposition counts on a multigraph only with equal multiplicities
    mult = {(0, 1): 2, (0, 2): 1, (0, 3): 1}
    assert plan_of(Multigraph(star, mult))[2] == [(), (), (((1, 2),),)]


def test_twin_detection_memory_is_linear_in_the_vertex_count():
    # isolated vertices beside a star: a neighbourhood bit mask for every
    # vertex would take about n^2 / 2 bits (56 MB here); the edge order keeps
    # no list per isolated vertex either
    n = 30000
    m = Multigraph(SimpleGraph(n, [(0, 1), (0, 2), (0, 3)]))
    tracemalloc.start()
    try:
        steps = _plan(m, [len(nb) for nb in m.base.adj], {1})[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [twins for _, _, _, twins in steps] == [(), (((0, 1),),), (((1, 2),),)]
    assert peak < 4 * 2**20


def test_triangle_vertices_are_true_twins():
    # (0 1) swaps (0,2) and (1,2); (1 2) swaps (0,1) and (0,2)
    k3 = cycle_graph(3)
    edges, _, lex = plan_of(k3)
    pos = {e: i for i, e in enumerate(edges)}
    swaps = {pairs for step in lex for pairs in step}
    assert swaps == {
        (tuple(sorted((pos[(0, 2)], pos[(1, 2)]))),),
        (tuple(sorted((pos[(0, 1)], pos[(0, 2)]))),),
    }


def test_each_check_holds_placed_pairs_only():
    # in the BFS edge order a transposition's pairs sorted by f are sorted
    # by s too, so the check at step s never reads an unplaced edge
    for g in data_graphs("atlas7.g6"):
        for i, step in enumerate(plan_of(g)[2]):
            for pairs in step:
                assert pairs[-1][1] == i
                assert all(f < s <= i for f, s in pairs)
                assert sorted(pairs) == sorted(pairs, key=lambda pair: pair[1]) == list(pairs)


@pytest.mark.parametrize(
    "host,lim,graph_mode,nodes",
    [
        (double(complete_graph(5)), SearchLimits(), False, 63),
        (bowtie_graph(), SearchLimits(), True, 2633),
        (bowtie_graph(), SearchLimits(max_colors=3), True, 2421),
        (double(parse_graph6("G?\\vjw")), SearchLimits(2, 28), False, 4963),
        (parse_graph6("Gl^gNo"), SearchLimits(max_edges=28), True, 1737),
        (complete_graph(7), SearchLimits(max_colors=10), True, 430634),
    ],
    ids=["double-K5", "graph-bowtie", "graph-bowtie-3colors", "double-slowest1", "graph-slowest3", "graph-K7-decision"],
)
def test_reference_keeps_the_node_counts_without_twin_constraints(host, lim, graph_mode, nodes):
    # the counts the solver reported before it broke vertex symmetry
    assert reference_exact_search(host, lim, graph_mode).nodes == nodes


@pytest.mark.parametrize(
    "g6,nodes",
    [("G?\\vjw", 1300), ("GHFENk", 2104), ("Gl^gNo", 1957)],
    ids=["double-slowest1", "double-slowest2", "double-slowest3"],
)
def test_chronological_reference_keeps_the_node_counts_with_twin_constraints(g6, nodes):
    # the counts the solver reported before it jumped back over conflicts
    m = double(parse_graph6(g6))
    assert reference_exact_search(m, SearchLimits(2, 28), twins=True).nodes == nodes


def test_schedule_checks_each_edge_once_its_endpoints_are_final():
    # a vertex is final after its last incident edge: each backcheck sits at
    # the later of its endpoints' last edges, near holds the steps at either
    # endpoint, and each step's checks come in edge order
    for name in ("atlas7.g6", "connected8.g6"):
        for g in data_graphs(name):
            edges, checks, _ = plan_of(g)
            last = [-1] * g.n
            at = [0] * g.n
            for i, (u, v) in enumerate(edges):
                last[u] = last[v] = i
                at[u] |= 1 << i
                at[v] |= 1 << i
            assert len(checks) == len(edges)
            assert sorted(j for step in checks for j, *_ in step) == list(range(len(edges)))
            # plan_of asserts that the step map, which puts witnesses in
            # host order, inverts the order
            for i, step in enumerate(checks):
                for j, v, o, near in step:
                    assert (v, o) == edges[j]
                    assert i == max(last[v], last[o])
                    assert near == at[v] | at[o]
                assert [j for j, *_ in step] == sorted(j for j, *_ in step)


def test_plans_are_pinned():
    # every step's edge, backchecks and twin checks, and the step of each
    # host edge, over the atlas and order-8 graphs with all multiplicities
    # equal and with 1 and 2 mixed (the twin checks then compare them)
    digest = hashlib.sha256()
    for name in ("atlas7.g6", "connected8.g6"):
        for g in data_graphs(name):
            for mult in (None, {(u, v): 1 + (u + v) % 2 for u, v in g.edges}):
                plan = plan_steps(Multigraph(g, mult))
                steps = {e: i for i, (e, _, _) in enumerate(plan)}
                digest.update(repr((plan, [steps[e] for e in g.edges])).encode())
    assert digest.hexdigest() == "4486f5871dd1845d0e889dd4fe6a5c34a35f488251642566165b56a1f904c90e"


def test_atlas7_graph_mode_matches_the_reference():
    graphs = data_graphs("atlas7.g6")
    assert len(graphs) == 995
    for g in graphs:
        assert_same_answer(exact_lir_graph(g), reference_exact_search(g, SearchLimits(), graph_mode=True))
        if g.m >= 2:
            want = reference_exact_search(g, SearchLimits(max_colors=g.m // 2), graph_mode=True)
            assert_same_answer(is_decomposable(g), want)


def test_exact_route_doubled_order8_matches_the_reference():
    lim = SearchLimits(max_colors=2, max_edges=28)
    exact = [g for g in data_graphs("connected8.g6") if color_double_auto(g, classify(g)) is None]
    assert len(exact) == 10917
    for g in exact:
        m = double(g)
        got = exact_lir_multigraph(m, lim)
        assert_same_answer(got, reference_exact_search(m, lim, twins=True))
        assert_same_answer(got, reference_exact_search(m, lim))


@st.composite
def small_multigraphs(draw) -> Multigraph:
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    g = SimpleGraph(n, edges)
    return Multigraph(g, {e: draw(st.integers(1, 3)) for e in g.edges})


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(small_multigraphs(), st.integers(1, 3))
def test_random_multigraphs_match_the_reference(m, k):
    lim = SearchLimits(max_colors=k)
    got = exact_lir_multigraph(m, lim)
    assert_same_answer(got, reference_exact_search(m, lim, twins=True))
    assert_same_answer(got, reference_exact_search(m, lim))


# unit multiplicities, k = 2: searches in which a failed twin check decides
# a backjump
TWIN_JUMP_FOUND = SimpleGraph(
    6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5)]
)
TWIN_JUMP_NONE = SimpleGraph(
    6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (3, 4), (3, 5), (4, 5)]
)


def test_a_failed_twin_check_hands_its_steps_to_the_conflict_set():
    lim = SearchLimits(max_colors=2)
    # without them the search jumps past the lex-least valid assignment
    m = Multigraph(TWIN_JUMP_FOUND)
    got = exact_lir_multigraph(m, lim)
    assert_same_answer(got, reference_exact_search(m, lim, twins=True))
    assert got.nodes == 68
    # every compared pair's steps count, not only the first pair's (343 nodes)
    m = Multigraph(TWIN_JUMP_NONE)
    got = exact_lir_multigraph(m, lim)
    assert_same_answer(got, reference_exact_search(m, lim, twins=True))
    assert got.nodes == 351


def test_k8_decision_is_found_at_three_classes():
    # the search without twin constraints takes 36M nodes here
    res = is_decomposable(complete_graph(8), SearchLimits(max_edges=28))
    assert res.status is SearchStatus.FOUND and res.colors == 3
    assert res.nodes < 1_000_000
