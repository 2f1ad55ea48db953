"""Exact solver against independent enumeration oracles."""

import hashlib
import random
from pathlib import Path

import pytest

from lirdec import solver
from lirdec.classify import classify, recognize_t_prime
from lirdec.colorers import color_double_auto
from lirdec.decomposition import verify
from lirdec.enumeration import enumerate_connected
from lirdec.graph_io import parse_graph6, read_graph6_lines
from lirdec.graphs import (
    Multigraph,
    SimpleGraph,
    complete_graph,
    cycle_graph,
    double,
    path_graph,
)
from lirdec.harness import sweep
from lirdec.solver import (
    SearchLimits,
    SearchStatus,
    SolveResult,
    _ladder,
    _plan,
    _search_multigraph_k,
    exact_lir_graph,
    exact_lir_multigraph,
    is_decomposable,
)

from oracle import (
    bowtie_graph,
    brute_graph_decomposable,
    brute_min_colors,
    color_class,
    random_connected_graph,
    two_color_brute,
)


def test_doubled_k2_has_no_coloring():
    res = exact_lir_multigraph(double(path_graph(2)))
    assert res.status is SearchStatus.NONE


def test_doubled_triangle_needs_two_colors():
    res = exact_lir_multigraph(double(cycle_graph(3)))
    assert res.found and res.colors == 2
    assert verify(res.witness).valid


def test_doubled_c4_needs_two_colors():
    # frozen from the 3^4 state enumeration
    oracle = brute_min_colors(double(cycle_graph(4)), 2)
    assert oracle is not None and oracle[0] == 2
    res = exact_lir_multigraph(double(cycle_graph(4)))
    assert res.found and res.colors == 2


def test_bowtie_graph_needs_four():
    res = exact_lir_graph(bowtie_graph())
    assert res.found and res.colors == 4
    assert verify(res.witness).valid


def test_bowtie_three_color_search_completes_empty():
    res = exact_lir_graph(bowtie_graph(), SearchLimits(max_colors=3))
    assert res.status is SearchStatus.NONE


def test_doubled_bowtie_two_colorable():
    res = exact_lir_multigraph(double(bowtie_graph()), SearchLimits(max_colors=2))
    assert res.found and res.colors == 2


def test_p3_is_already_irregular():
    res = exact_lir_graph(path_graph(3))
    assert res.found and res.colors == 1


def test_c5_has_no_decomposition():
    res = exact_lir_graph(cycle_graph(5))
    assert res.status is SearchStatus.NONE


def test_is_decomposable_examples():
    assert is_decomposable(cycle_graph(3)).status is SearchStatus.NONE
    assert is_decomposable(path_graph(3)).found
    assert is_decomposable(bowtie_graph()).found


def test_decomposable_witness_classes_have_multiple_edges():
    res = is_decomposable(bowtie_graph())
    d = res.witness
    for c in range(d.k):
        cls = color_class(d, c)
        if cls is not None:
            assert len(cls.edges) >= 2


def test_budget_exhaustion_is_inconclusive():
    g = random_connected_graph(8, 8, random.Random(3))
    res = exact_lir_graph(g, SearchLimits(node_budget=5))
    assert res.status is SearchStatus.INCONCLUSIVE


def test_max_edges_precondition():
    with pytest.raises(ValueError, match="too many edges"):
        exact_lir_graph(cycle_graph(6), SearchLimits(max_edges=4))


def test_agrees_with_enumeration_on_random_multigraphs():
    rng = random.Random(11)
    for _ in range(20):
        g = random_connected_graph(5, rng.randrange(0, 4), rng)
        m = Multigraph(g, {e: rng.choice([1, 2, 2]) for e in g.edges})
        expected = brute_min_colors(m, 3)
        got = exact_lir_multigraph(m, SearchLimits(max_colors=3))
        if expected is None:
            assert got.status is SearchStatus.NONE
        else:
            assert got.found and got.colors == expected[0]
            assert verify(got.witness).valid


def test_agrees_with_enumeration_on_triple_edges():
    rng = random.Random(99)
    for _ in range(30):
        g = random_connected_graph(rng.randrange(3, 6), rng.randrange(0, 3), rng)
        m = Multigraph(g, {e: rng.choice([1, 1, 2, 2, 3]) for e in g.edges})
        expected = brute_min_colors(m, 4)
        got = exact_lir_multigraph(m, SearchLimits(max_colors=4))
        if expected is None:
            assert got.status is SearchStatus.NONE
        else:
            assert got.found and got.colors == expected[0]


def test_decomposability_agrees_with_enumeration():
    rng = random.Random(13)
    for _ in range(25):
        g = random_connected_graph(5, rng.randrange(0, 4), rng)
        assert is_decomposable(g).found == brute_graph_decomposable(g)


def test_two_color_brute_agrees_with_solver():
    rng = random.Random(17)
    for _ in range(15):
        g = random_connected_graph(5, rng.randrange(0, 3), rng)
        m = double(g)
        brute = two_color_brute(m)
        fast = exact_lir_multigraph(m, SearchLimits(max_colors=2))
        assert (brute is not None) == fast.found
        if brute is not None:
            assert verify(brute).valid


def test_two_color_brute_rejects_non_doubled():
    with pytest.raises(ValueError, match="doubled"):
        two_color_brute(Multigraph(path_graph(3)))


def test_single_multiedge_graph():
    res = exact_lir_multigraph(Multigraph(path_graph(2), {(0, 1): 3}))
    # odd multiplicity still ties endpoints in some color for k<=4? 3 = 2+1
    # splits always leave both endpoints equal in every used color.
    assert res.status is SearchStatus.NONE


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return SimpleGraph(10, outer + spokes + inner)


# the three 8-vertex graphs whose doubled two-color search was longest
# under chronological backtracking (1300, 2104 and 1957 nodes)
SLOWEST_SWEEP8 = ("G?\\vjw", "GHFENk", "Gl^gNo")

# (mode, graph, limits, status, colors, nodes). nodes counts k >= 2 states
# with color and twin symmetry broken, and with backjumping in doubled mode;
# they pin the search tree, and test_symmetry.py pins the answers to the
# chronological search with and without twin constraints
GOLDEN = [
    pytest.param("double", complete_graph(5), SearchLimits(), "found", 2, 39, id="double-K5"),
    pytest.param("double", petersen_graph(), SearchLimits(), "found", 2, 24, id="double-petersen"),
    pytest.param("graph", petersen_graph(), SearchLimits(), "found", 2, 99, id="graph-petersen"),
    pytest.param("double", bowtie_graph(), SearchLimits(max_colors=2), "found", 2, 24, id="double-bowtie"),
    pytest.param("graph", bowtie_graph(), SearchLimits(), "found", 4, 920, id="graph-bowtie"),
    pytest.param("graph", bowtie_graph(), SearchLimits(max_colors=3), "none", None, 759, id="graph-bowtie-3colors"),
    pytest.param("double", parse_graph6(SLOWEST_SWEEP8[0]), SearchLimits(2, 28), "found", 2, 44, id="double-slowest1"),
    pytest.param("double", parse_graph6(SLOWEST_SWEEP8[1]), SearchLimits(2, 28), "found", 2, 46, id="double-slowest2"),
    pytest.param("double", parse_graph6(SLOWEST_SWEEP8[2]), SearchLimits(2, 28), "found", 2, 269, id="double-slowest3"),
    pytest.param("graph", parse_graph6(SLOWEST_SWEEP8[0]), SearchLimits(max_edges=28), "found", 2, 148, id="graph-slowest1"),
    pytest.param("graph", parse_graph6(SLOWEST_SWEEP8[1]), SearchLimits(max_edges=28), "found", 2, 162, id="graph-slowest2"),
    pytest.param("graph", parse_graph6(SLOWEST_SWEEP8[2]), SearchLimits(max_edges=28), "found", 2, 1161, id="graph-slowest3"),
    pytest.param("double", path_graph(3), SearchLimits(), "found", 1, 0, id="double-P3-k1"),
    pytest.param("graph", path_graph(3), SearchLimits(), "found", 1, 0, id="graph-P3-k1"),
    pytest.param("graph", bowtie_graph(), SearchLimits(node_budget=3), "inconclusive", None, 3, id="graph-bowtie-budget3"),
    # the only doubled none: two first-edge states at each k = 2, 3, 4, not 3 + 6 + 10
    pytest.param("double", path_graph(2), SearchLimits(), "none", None, 6, id="double-K2-none"),
    # the lone edge's failures depend on no earlier step: each k ends there
    pytest.param("double", SimpleGraph(5, [(0, 1), (1, 2), (3, 4)]), SearchLimits(), "none", None, 25, id="double-P3+K2-none"),
]


@pytest.mark.parametrize("mode,g,lim,status,colors,nodes", GOLDEN)
def test_golden_node_counts(mode, g, lim, status, colors, nodes):
    if mode == "double":
        res = exact_lir_multigraph(double(g), lim)
    else:
        res = exact_lir_graph(g, lim)
    assert (res.status.value, res.colors, res.nodes) == (status, colors, nodes)
    if res.found:
        assert verify(res.witness).valid


def test_golden_decision_node_counts():
    # exact_lir_graph at the cap floor(m/2): the graph-bowtie and
    # graph-petersen counts above
    assert is_decomposable(bowtie_graph()).nodes == 920
    assert is_decomposable(petersen_graph()).nodes == 99


def test_first_color_count_needs_no_search():
    # locally irregular hosts: the whole multiplicity in one color, 0 nodes
    star = Multigraph(SimpleGraph(4, [(0, 1), (0, 2), (0, 3)]), {(0, 1): 3})
    for m in (star, double(path_graph(3)), Multigraph(SimpleGraph(3, []))):
        res = exact_lir_multigraph(m, SearchLimits(node_budget=1))
        assert (res.status, res.colors, res.nodes) == (SearchStatus.FOUND, 1, 0)
        assert all(counts == (m.mult[e],) for e, counts in res.witness.assign.items())
    # a host that is not irregular gets no 1-coloring, and no node is charged
    res = exact_lir_multigraph(double(cycle_graph(3)), SearchLimits(max_colors=1))
    assert (res.status, res.nodes) == (SearchStatus.NONE, 0)


def test_no_plan_is_built_when_no_second_color_is_allowed(monkeypatch):
    # a cap of 1 after a failed degree check: P4 and K3 decided at floor(m/2)
    # = 1 class, and the doubled triangle with max_colors=1
    calls = []
    monkeypatch.setattr(solver, "_plan", lambda *args: calls.append(args) or _plan(*args))
    for res in (
        is_decomposable(path_graph(4)),
        is_decomposable(complete_graph(3)),
        exact_lir_multigraph(double(cycle_graph(3)), SearchLimits(max_colors=1)),
    ):
        assert res == SolveResult(SearchStatus.NONE, nodes=0)
    assert calls == []
    assert exact_lir_multigraph(double(cycle_graph(3)), SearchLimits(max_colors=2)).colors == 2
    assert len(calls) == 1


@pytest.mark.parametrize("mode,g,nodes", [("double", complete_graph(5), 39), ("graph", bowtie_graph(), 920)])
def test_the_node_budget_is_exact(mode, g, nodes):
    # the GOLDEN counts: a budget of exactly that many nodes suffices, one
    # fewer does not
    def run(budget):
        lim = SearchLimits(node_budget=budget)
        return exact_lir_multigraph(double(g), lim) if mode == "double" else exact_lir_graph(g, lim)

    assert run(nodes).found and run(nodes).nodes == nodes
    assert (run(nodes - 1).status, run(nodes - 1).nodes) == (SearchStatus.INCONCLUSIVE, nodes - 1)


def test_default_limits_and_result():
    assert SearchLimits() == SearchLimits(max_colors=4, max_edges=24, node_budget=10**9)
    assert SolveResult(SearchStatus.NONE) == SolveResult(SearchStatus.NONE, None, None, 0)


@pytest.mark.parametrize("field", ["max_colors", "max_edges", "node_budget"])
def test_each_limit_must_be_positive(field):
    assert SearchLimits(**{field: 1})
    with pytest.raises(ValueError, match="search limits must be positive"):
        SearchLimits(**{field: 0})


def test_limits_take_no_other_attribute():
    # __slots__: a misspelt limit raises instead of being stored beside the fields
    lim = SearchLimits()
    assert not hasattr(lim, "__dict__")
    with pytest.raises(AttributeError):
        lim.max_color = 2


def test_a_changed_copy_of_the_limits_is_checked_too():
    # a zero color limit would make the search report none for any graph
    assert SearchLimits()._replace(max_colors=2) == SearchLimits(2)
    with pytest.raises(ValueError, match="search limits must be positive"):
        SearchLimits()._replace(max_colors=0)
    with pytest.raises(ValueError, match="search limits must be positive"):
        SearchLimits._make((1, 0, 1))


def test_a_witness_that_fails_verification_is_an_internal_error():
    # every edge all red ties the doubled triangle; the ladder must not
    # report it as found
    def search(steps, mus, kinds, k, budget):
        return [(2,) + (0,) * (k - 1) for _ in steps], budget

    assert _ladder(double(cycle_graph(3)), None, _search_multigraph_k).found
    with pytest.raises(AssertionError, match="search produced an invalid witness"):
        _ladder(double(cycle_graph(3)), None, search)


@pytest.mark.parametrize("g", [path_graph(1500), cycle_graph(1501)], ids=["path1500", "cycle1501"])
def test_long_doubled_graphs_do_not_hit_the_recursion_limit(g):
    res = exact_lir_multigraph(double(g), SearchLimits(max_colors=2, max_edges=2000))
    assert res.found and res.colors == 2


def test_decision_is_the_exact_search_at_the_cap():
    # every connected graph on 2-7 vertices: same status, minimum class
    # count, node count and witness as exact_lir_graph at floor(m/2)
    for n in range(2, 8):
        for g in enumerate_connected(n):
            if g.m < 2:
                continue
            got = is_decomposable(g)
            want = exact_lir_graph(g, SearchLimits(max_colors=max(1, g.m // 2)))
            assert (got.status, got.colors, got.nodes) == (want.status, want.colors, want.nodes)
            assert (got.witness is None) == (want.witness is None)
            if got.found:
                assert got.witness.assign == want.witness.assign


def test_decision_reports_the_minimum_class_count():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randrange(2, 6)
        g = random_connected_graph(n, rng.randrange(0, min(4, (n - 1) * (n - 2) // 2 + 1)), rng)
        oracle = brute_min_colors(Multigraph(g), g.m // 2)
        res = is_decomposable(g)
        assert (res.status is SearchStatus.NONE) == (oracle is None), g.edges
        if oracle is not None:
            assert res.found and res.colors == oracle[0], g.edges
            assert verify(res.witness).valid


def test_decision_ignores_max_colors_and_keeps_the_edge_cap():
    res = is_decomposable(bowtie_graph(), SearchLimits(max_colors=2))
    assert res.found and res.colors == 4
    assert is_decomposable(path_graph(2)).status is SearchStatus.NONE
    assert is_decomposable(SimpleGraph(1, [])).colors == 0
    # the lone-edge cases search nothing
    assert is_decomposable(SimpleGraph(1, [])).nodes == is_decomposable(path_graph(2)).nodes == 0
    with pytest.raises(ValueError, match="too many edges"):
        is_decomposable(complete_graph(8), SearchLimits(max_edges=27))


def test_order8_none_is_exactly_the_non_decomposable_family():
    # ground truth at order 8: every connected graph on 8 vertices has a
    # locally irregular decomposition unless it is an odd path, an odd cycle
    # or in the triangle family (Baudon, Bensmail, Przybylo & Wozniak,
    # Eur. J. Combin. 2015)
    data = Path(__file__).resolve().parent.parent / "bench" / "data" / "connected8.g6"
    graphs = list(read_graph6_lines(data.read_text()))
    assert len(graphs) == 11117
    nones = 0
    for g in graphs:
        res = is_decomposable(g, SearchLimits(max_edges=28))
        assert res.status is not SearchStatus.INCONCLUSIVE
        assert (res.status is SearchStatus.NONE) == recognize_t_prime(g).member, g.edges
        nones += res.status is SearchStatus.NONE
    assert nones == 3


def test_order8_sweep_and_node_totals_are_pinned():
    # the built-in order-8 catalog: the sweep's JSONL byte for byte with
    # runtime zeroed, the k = 2 nodes of the exact-route graphs (in the
    # catalog's labelling and in bench/data/connected8.g6's) and the graph
    # mode nodes of deciding every connected graph on 2-7 vertices
    lim = SearchLimits(max_edges=28)
    graphs = enumerate_connected(8)
    digest = hashlib.sha256()
    for rec in sweep(graphs, lim):
        digest.update((rec._replace(runtime=0.0).to_json() + "\n").encode())
    assert digest.hexdigest() == "79f444ddb833282eb9b6a922862841c0a51d17b5f63c1f4d4050c0a31ea5ac1d"
    data = Path(__file__).resolve().parent.parent / "bench" / "data" / "connected8.g6"
    two = SearchLimits(2, 28)
    for catalog, nodes in ((graphs, 241_097), (list(read_graph6_lines(data.read_text())), 241_091)):
        exact = [g for g in catalog if color_double_auto(g, classify(g)) is None]
        assert len(exact) == 10917
        assert sum(exact_lir_multigraph(double(g), two).nodes for g in exact) == nodes
    assert sum(is_decomposable(g).nodes for n in range(2, 8) for g in enumerate_connected(n)) == 47596
