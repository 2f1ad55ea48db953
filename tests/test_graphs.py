"""Core graph model: construction, doubling, local irregularity."""

import itertools

import pytest

from lirdec.graphs import (
    Multigraph,
    SimpleGraph,
    bipartition_sides,
    canon_edge,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    double,
    is_locally_irregular,
    path_graph,
    sides_of,
    wheel_graph,
)

from oracle import (
    bipartition_reference,
    bowtie_graph,
    connected_components,
    induced_subgraph,
    multiplicities_reference,
    two_triangles_graph,
)


def test_canon_edge():
    assert canon_edge(3, 1) == (1, 3)
    assert canon_edge(1, 3) == (1, 3)


def test_simple_graph_rejects_loops():
    with pytest.raises(ValueError, match="loop"):
        SimpleGraph(2, [(0, 0)])


def test_simple_graph_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        SimpleGraph(3, [(0, 1), (1, 0)])


def test_simple_graph_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        SimpleGraph(2, [(0, 2)])


@pytest.mark.parametrize("edge", [(2, 0), (-1, 0), (0, -1)])
def test_simple_graph_rejects_every_end_out_of_range(edge):
    with pytest.raises(ValueError, match=rf"edge \({edge[0]},{edge[1]}\) out of range for n=2"):
        SimpleGraph(2, [edge])


def test_adjacency_is_symmetric():
    g = SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    for u, v in g.edges:
        assert v in g.adj[u] and u in g.adj[v]
    assert g.degree(0) == 2


def test_double_path():
    two_p3 = double(path_graph(3))
    assert two_p3.mult == {(0, 1): 2, (1, 2): 2}


def test_double_k2():
    m = double(path_graph(2))
    assert m.mult == {(0, 1): 2}
    assert m.degree(0) == 2


def test_double_triangle():
    m = double(cycle_graph(3))
    assert all(mu == 2 for mu in m.mult.values())
    assert len(m.edges) == 3
    assert m.degree(0) == 4


def test_double_empty_errors():
    with pytest.raises(ValueError, match="nothing to double"):
        double(SimpleGraph(3, []))


def test_multigraph_rejects_bad_multiplicity():
    g = path_graph(3)
    with pytest.raises(ValueError, match=">= 1"):
        Multigraph(g, {(0, 1): 0})
    with pytest.raises(ValueError, match="non-edge"):
        Multigraph(g, {(0, 2): 1})


def test_multigraph_defaults_to_one():
    g = path_graph(3)
    m = Multigraph(g, {(0, 1): 3})
    assert m.mult == {(0, 1): 3, (1, 2): 1}
    assert m.degree(1) == 4


def test_locally_irregular_doubled_star():
    # center degree 4, leaves degree 2
    star = complete_multipartite_graph([1, 2])
    assert is_locally_irregular(double(star))


def test_locally_irregular_doubled_k2_is_not():
    assert not is_locally_irregular(double(path_graph(2)))


@pytest.mark.parametrize("p,q", [(1, 2), (2, 3), (1, 4), (3, 5)])
def test_unbalanced_complete_bipartite_doubled_is_irregular(p, q):
    assert is_locally_irregular(double(complete_multipartite_graph([p, q])))


def test_balanced_complete_bipartite_doubled_is_not():
    assert not is_locally_irregular(double(complete_multipartite_graph([2, 2])))


def test_connectivity_helpers():
    g = SimpleGraph(5, [(0, 1), (2, 3)])
    assert not g.is_connected()
    assert connected_components(g) == [[0, 1], [2, 3], [4]]
    assert cycle_graph(5).is_connected()


def test_connectivity_walk_colors_every_labelled_graph_up_to_five_vertices():
    # the coloring is filled only for a connected graph with no odd cycle,
    # and then gives the reference 2-coloring, vertex 0's side as 1;
    # bipartition_sides is None for any other graph, else the walk's sides
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = SimpleGraph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            side = []
            connected = g.is_connected(side)
            assert connected == (len(connected_components(g)) == 1), g.edges
            reference = bipartition_reference(g) if connected else None
            if reference is None:
                assert side == [], g.edges
                assert bipartition_sides(g) is None, g.edges
            else:
                walked = sides_of(side)
                assert walked[0] == [v for v in range(n) if side[v] == 1], g.edges
                assert walked[1] == [v for v in range(n) if side[v] == -1], g.edges
                assert walked == reference, g.edges
                assert bipartition_sides(g) == walked, g.edges


def test_induced_subgraph():
    g = cycle_graph(5)
    sub, back = induced_subgraph(g, [0, 1, 2])
    assert back == [0, 1, 2]
    assert sub.edges == ((0, 1), (1, 2))


def test_wheel_shape():
    w = wheel_graph(5)
    assert w.n == 5
    assert w.degree(4) == 4  # hub
    assert all(w.degree(v) == 3 for v in range(4))


def test_complete_graph_shape():
    k5 = complete_graph(5)
    assert k5.m == 10
    assert all(k5.degree(v) == 4 for v in range(5))


def test_multipartite_shape():
    g = complete_multipartite_graph([2, 2, 2])
    assert g.n == 6 and g.m == 12
    assert not g.has_edge(0, 1) and g.has_edge(0, 2)


def test_two_triangles_shape():
    g = two_triangles_graph()
    assert g.n == 5 and g.m == 6
    assert sorted(g.degree(v) for v in range(5)) == [2, 2, 2, 2, 4]


def test_bowtie_shape():
    b = bowtie_graph()
    assert b.n == 10 and b.m == 13
    # two degree-5 centers joined by a bridge, eight degree-2 triangle tips
    assert sorted(b.degree(v) for v in range(10)) == [2] * 8 + [5, 5]
    assert b.has_edge(0, 3)


@pytest.mark.parametrize(
    "mult,message",
    [
        ({(1, 0): 2}, r"multiplicity given for non-edge \(1, 0\)"),
        ({(0, 2): 2}, r"multiplicity given for non-edge \(0, 2\)"),
        ({(0, 1): 0}, r"multiplicity of \(0, 1\) must be >= 1, got 0"),
        ({(1, 2): -2}, r"multiplicity of \(1, 2\) must be >= 1, got -2"),
    ],
    ids=["non-canonical", "non-edge", "zero", "negative"],
)
def test_each_multigraph_value_error(mult, message):
    with pytest.raises(ValueError, match=message):
        Multigraph(path_graph(3), mult)


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: SimpleGraph(-1, []), "vertex count must be non-negative"),
        (lambda: path_graph(0), "path needs at least 1 vertex"),
        (lambda: cycle_graph(2), "cycle needs length >= 3"),
        (lambda: wheel_graph(3), "wheel needs order >= 4"),
        (lambda: complete_graph(0), "complete graph needs at least 1 vertex"),
        (lambda: complete_multipartite_graph([3]), "need >= 2 parts, all non-empty"),
        (lambda: complete_multipartite_graph([2, 0]), "need >= 2 parts, all non-empty"),
    ],
    ids=["negative-order", "path0", "cycle2", "wheel3", "complete0", "one-part", "empty-part"],
)
def test_each_builder_value_error(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_the_smallest_instances_of_each_builder():
    assert path_graph(1) == SimpleGraph(1, [])
    assert cycle_graph(3) == complete_graph(3)
    assert wheel_graph(4) == complete_graph(4)
    assert complete_graph(1) == SimpleGraph(1, [])
    assert complete_multipartite_graph([1, 1]) == path_graph(2)


def test_the_empty_graph_is_connected():
    coloring = []
    assert SimpleGraph(0, []).is_connected(coloring)
    assert coloring == []


def test_equal_graphs_hash_alike():
    edges = [(0, 1), (2, 1), (3, 2)]
    g, h = SimpleGraph(4, edges), SimpleGraph(4, reversed(edges))
    assert g == h and hash(g) == hash(h)
    assert hash(Multigraph(g, {(0, 1): 2})) == hash(Multigraph(h, {(1, 2): 1, (0, 1): 2}))
    assert len({g, h, path_graph(4)}) == 1
    assert len({Multigraph(g), Multigraph(h, {(0, 1): 1}), double(g)}) == 2


@pytest.mark.parametrize("mult", [{(0, 1): "2"}, {(0, 1): 2, (1, 2): None}], ids=["str", "none-after-int"])
def test_an_incomparable_multiplicity_fails_as_the_reference_does(mult):
    # min() over the values raises TypeError, and each entry is then checked
    # in order, as the reference does
    with pytest.raises(TypeError) as got:
        Multigraph(path_graph(3), mult)
    with pytest.raises(TypeError) as want:
        multiplicities_reference(path_graph(3), mult)
    assert str(got.value) == str(want.value)


def test_graphs_differ_on_order_edges_or_multiplicities_and_show_their_size():
    assert path_graph(4) != cycle_graph(4)
    assert SimpleGraph(2, []) != SimpleGraph(3, [])
    assert path_graph(3) != "SimpleGraph"
    assert Multigraph(path_graph(3)) != double(path_graph(3))
    assert repr(path_graph(4)) == "SimpleGraph(n=4, m=3)"
    assert repr(double(cycle_graph(5))) == "Multigraph(n=5, m=5)"


def test_graphs_on_at_most_ten_vertices_share_their_edge_and_neighbour_tuples():
    # a catalog holds thousands of small graphs: their tuples come from one
    # table, which keeps the n = 8 catalog's peak memory down by about a third
    for n in (2, 10):
        g, h = path_graph(n), SimpleGraph(n, [(i + 1, i) for i in reversed(range(n - 1))])
        assert g.edges == h.edges and all(a is b for a, b in zip(g.edges, h.edges))
        assert all(a is b for a, b in zip(g.adj, h.adj))
    g, h = path_graph(11), path_graph(11)
    assert not any(a is b for a, b in zip(g.edges, h.edges))
    assert not any(a is b for a, b in zip(g.adj, h.adj))


def test_graphs_have_no_instance_dict():
    # __slots__: a catalog or sweep holds many graphs
    for g in (path_graph(3), double(path_graph(3))):
        assert not hasattr(g, "__dict__")
        with pytest.raises(AttributeError):
            g.extra = 1
