"""Class tags and recognition of the non-decomposable families."""

import itertools
import random
from collections import Counter
from pathlib import Path

import pytest

from lirdec.classify import (
    Attachment,
    ClassKind,
    TWitness,
    classify,
    cycle_order,
    multipartite_parts,
    path_order,
    recognize_t_prime,
    triangles_of,
    t_family_witness,
    wheel_order,
)
from lirdec.enumeration import enumerate_connected, random_connected_bipartite
from lirdec.graph_io import read_graph6_lines
from lirdec.graphs import (
    SimpleGraph,
    bipartition_sides,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    path_graph,
    wheel_graph,
)
from lirdec.solver import is_decomposable

from oracle import (
    bowtie_graph,
    induced_subgraph,
    multipartite_parts_reference,
    random_connected_graph,
    size_vectors,
    t_family_members,
    two_triangles_graph,
)


def k3_with_pendant_path(length):
    """Triangle plus a path of the given length hung on vertex 0."""
    edges = [(0, 1), (1, 2), (0, 2)]
    prev = 0
    for i in range(length):
        edges.append((prev, 3 + i))
        prev = 3 + i
    return SimpleGraph(3 + length, edges)


def triangles_joined_by_path(length):
    """Two triangles linked by a path of the given (odd) length."""
    edges = [(0, 1), (1, 2), (0, 2)]
    prev = 0
    for i in range(length):
        edges.append((prev, 3 + i))
        prev = 3 + i
    a, b = 3 + length, 4 + length
    edges += [(prev, a), (prev, b), (a, b)]
    return SimpleGraph(5 + length, edges)


@pytest.mark.parametrize(
    "g,kind",
    [
        (path_graph(5), ClassKind.PATH),
        (path_graph(2), ClassKind.PATH),
        (cycle_graph(5), ClassKind.CYCLE),
        (cycle_graph(3), ClassKind.CYCLE),
        (complete_graph(4), ClassKind.COMPLETE),
        (complete_graph(5), ClassKind.COMPLETE),
        (wheel_graph(5), ClassKind.WHEEL),
        (wheel_graph(9), ClassKind.WHEEL),
        (complete_multipartite_graph([2, 3]), ClassKind.COMPLETE_MULTIPARTITE),
        (complete_multipartite_graph([1, 1, 2]), ClassKind.COMPLETE_MULTIPARTITE),
        (bowtie_graph(), ClassKind.OTHER),
        (two_triangles_graph(), ClassKind.OTHER),
    ],
)
def test_classify_kinds(g, kind):
    assert classify(g).kind is kind


def test_classify_reports_part_sizes():
    tag = classify(complete_multipartite_graph([3, 1, 2]))
    assert tag.part_sizes == (1, 2, 3)


def test_classify_t_family_tag():
    assert classify(k3_with_pendant_path(2)).kind is ClassKind.T_FAMILY


def test_classify_requires_connected():
    with pytest.raises(ValueError, match="connected"):
        classify(SimpleGraph(4, [(0, 1), (2, 3)]))


def test_triangle_is_in_the_family():
    assert recognize_t_prime(cycle_graph(3)).member
    assert t_family_witness(cycle_graph(3)) is not None


def test_odd_cycles_and_paths_are_members():
    for n in (5, 7, 9):
        r = recognize_t_prime(cycle_graph(n))
        assert r.member and r.kind is ClassKind.ODD_CYCLE
    for n in (2, 4, 6):  # odd edge-length paths have even order
        r = recognize_t_prime(path_graph(n))
        assert r.member and r.kind is ClassKind.ODD_PATH


def test_even_structures_are_not_members():
    assert not recognize_t_prime(cycle_graph(4)).member
    assert not recognize_t_prime(cycle_graph(6)).member
    assert not recognize_t_prime(path_graph(3)).member
    assert not recognize_t_prime(path_graph(5)).member


def test_bowtie_is_not_a_member():
    assert not recognize_t_prime(bowtie_graph()).member


def test_two_triangles_sharing_a_vertex_not_in_family():
    # the construction never identifies two triangles at a vertex directly
    assert t_family_witness(two_triangles_graph()) is None


def test_pendant_path_parities():
    assert t_family_witness(k3_with_pendant_path(2)) is not None
    assert t_family_witness(k3_with_pendant_path(4)) is not None
    assert t_family_witness(k3_with_pendant_path(1)) is None
    assert t_family_witness(k3_with_pendant_path(3)) is None


def test_linking_path_parities():
    assert t_family_witness(triangles_joined_by_path(1)) is not None
    assert t_family_witness(triangles_joined_by_path(3)) is not None
    assert t_family_witness(triangles_joined_by_path(2)) is None
    assert t_family_witness(triangles_joined_by_path(4)) is None


def test_witness_replays_the_construction():
    g = triangles_joined_by_path(3)
    w = t_family_witness(g)
    assert len(w.steps) == 1
    step = w.steps[0]
    assert step.triangle is not None
    assert len(step.path) == 4  # host plus three path edges


def test_member_generator_is_sound_and_plentiful():
    members = t_family_members(12)
    assert len(members) >= 10
    seen = set()
    for g, w in members:
        assert g.n <= 12
        assert t_family_witness(g) is not None
        key = (g.n, g.edges)
        assert key not in seen
        seen.add(key)


def test_member_generator_limit():
    members = t_family_members(14, limit=5)
    assert len(members) == 5


def test_multipartite_parts_on_every_small_size_vector():
    rng = random.Random(6)
    vectors = size_vectors(6, 18)
    assert len(vectors) == 977  # partitions of 2..18 into 2..6 parts
    for sizes in vectors:
        g = complete_multipartite_graph(sizes)
        assert multipartite_parts(g) == multipartite_parts_reference(g)
        assert sorted(len(p) for p in multipartite_parts(g)) == sorted(sizes)
        # the same graph under shuffled vertex labels
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = SimpleGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        assert multipartite_parts(h) == multipartite_parts_reference(h)


def test_multipartite_parts_on_every_connected_graph_through_seven_vertices():
    # one graph per isomorphism class; grouping by neighbourhood must find
    # every complete multipartite one and no other
    from lirdec.enumeration import enumerate_connected

    members = 0
    for n in range(1, 8):
        for g in enumerate_connected(n):
            expected = multipartite_parts_reference(g)
            assert multipartite_parts(g) == expected, g.edges
            members += expected is not None
    assert members == len(size_vectors(7, 7))  # one per partition of 2..7


def test_multipartite_parts_on_every_labelled_graph_through_five_vertices():
    # every edge set on 0..n-1: connected, disconnected or edgeless
    members = 0
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = SimpleGraph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            expected = multipartite_parts_reference(g)
            assert multipartite_parts(g) == expected, (n, g.edges)
            members += expected is not None
    # labelled complete multipartite graphs on n vertices: the set partitions
    # of n into at least two blocks, 0 + 1 + 4 + 14 + 51 for n = 1..5
    assert members == 70


def test_multipartite_parts_on_random_non_members():
    rng = random.Random(18)
    seen_non_member = 0
    for _ in range(300):
        n = rng.randrange(1, 14)
        g = random_connected_graph(n, rng.randrange(0, n * (n - 1) // 2 + 1), rng)
        expected = multipartite_parts_reference(g)
        assert multipartite_parts(g) == expected
        seen_non_member += expected is None
    assert seen_non_member > 100


def test_triangles_of_matches_pair_scan():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randrange(1, 12)
        g = random_connected_graph(n, rng.randrange(0, 20), rng)
        expected = [
            (u, v, w) for u, v, w in itertools.combinations(range(n), 3)
            if g.has_edge(u, v) and g.has_edge(v, w) and g.has_edge(u, w)
        ]
        assert sorted(triangles_of(g)) == expected


def disjoint_union(*graphs):
    edges, offset = [], 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edges]
        offset += g.n
    return SimpleGraph(offset, edges)


def test_path_order_rejects_a_path_beside_a_cycle():
    # P2 + C3 has n - 1 edges, two ends and no degree above 2
    g = disjoint_union(path_graph(2), cycle_graph(3))
    assert path_order(g) is None
    assert not recognize_t_prime(g).member


def test_cycle_order_rejects_two_disjoint_triangles():
    g = disjoint_union(cycle_graph(3), cycle_graph(3))
    assert cycle_order(g) is None
    assert not recognize_t_prime(g).member


def test_t_family_witness_rejects_a_member_beside_a_cycle():
    member = k3_with_pendant_path(2)
    assert t_family_witness(member) is not None
    # the disjoint C4 keeps m = n - 1 + #triangles, so only the walk's
    # placed-vertex count sees the second component
    g = disjoint_union(member, cycle_graph(4))
    assert g.m == g.n - 1 + len(triangles_of(g))
    assert t_family_witness(g) is None
    assert not recognize_t_prime(g).member


def test_recognizers_on_every_labelled_graph_up_to_five_vertices():
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = SimpleGraph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            degrees = [g.degree(v) for v in range(n)]
            is_path = g.is_connected() and g.m == n - 1 and max(degrees) <= 2
            is_cycle = g.is_connected() and n >= 3 and degrees == [2] * n
            order = path_order(g)
            assert (order is not None) == is_path, g.edges
            if order is not None:
                assert sorted(order) == list(range(n))
                assert all(g.has_edge(a, b) for a, b in zip(order, order[1:]))
            order = cycle_order(g)
            assert (order is not None) == is_cycle, g.edges
            if order is not None:
                assert sorted(order) == list(range(n))
                assert all(g.has_edge(a, b) for a, b in zip(order, order[1:] + order[:1]))
            if t_family_witness(g) is not None:
                assert g.is_connected(), g.edges


def test_classify_tests_connectivity_once(monkeypatch):
    calls = [0]
    is_connected = SimpleGraph.is_connected

    def counted(self, *args):
        calls[0] += 1
        return is_connected(self, *args)

    monkeypatch.setattr(SimpleGraph, "is_connected", counted)
    rng = random.Random(5)
    graphs = [
        path_graph(6), cycle_graph(7), wheel_graph(6), complete_graph(5),
        complete_multipartite_graph([2, 3]), bowtie_graph(), two_triangles_graph(),
        k3_with_pendant_path(4),
    ]
    graphs += [g for g, _ in t_family_members(9, limit=6)]
    graphs += [random_connected_graph(7, rng.randrange(0, 8), rng) for _ in range(30)]
    for g in graphs:
        calls[0] = 0
        classify(g)
        assert calls[0] == 1, g.edges


def test_classify_carries_the_sides_of_bipartite_other_graphs():
    # the connectivity walk's 2-coloring: bipartition_sides for a bipartite
    # OTHER graph, None after an odd cycle and for every other class
    rng = random.Random(16)
    graphs = [g for n in range(2, 8) for g in enumerate_connected(n)]
    graphs += [random_connected_bipartite(rng.randrange(2, 40), rng) for _ in range(100)]
    carried = 0
    for g in graphs:
        tag = classify(g)
        expected = bipartition_sides(g) if tag.kind is ClassKind.OTHER else None
        assert tag.sides == expected, g.edges
        carried += expected is not None
    assert carried > 100


def test_triangle_pretest_keeps_every_member():
    members = t_family_members(9)
    assert len(members) > 10
    for g, _ in members:
        assert t_family_witness(g) is not None, g.edges
        tag = classify(g)
        if g.n == 3:
            assert tag.kind is ClassKind.CYCLE  # the triangle itself
        else:
            assert tag.kind is ClassKind.T_FAMILY, g.edges
            assert tag.sides is None


def test_class_counts_over_every_connected_graph_on_eight_vertices():
    data = Path(__file__).resolve().parent.parent / "bench" / "data" / "connected8.g6"
    counts = Counter(classify(g).kind.value for g in read_graph6_lines(data.read_text()))
    assert counts == {
        "other": 11091,
        "complete-multipartite": 20,
        "t-family": 2,
        "cycle": 1,
        "path": 1,
        "complete": 1,
        "wheel": 1,
    }


def _wheel_reference(g):
    """(hub, rim order) from the rim as its own graph: cycle_order on the
    subgraph induced by every vertex but the unique full-degree one."""
    if g.n < 5 or g.m != 2 * (g.n - 1):
        return None
    hubs = [v for v in range(g.n) if g.degree(v) == g.n - 1]
    if len(hubs) != 1 or any(g.degree(v) != 3 for v in range(g.n) if v != hubs[0]):
        return None
    rim, ids = induced_subgraph(g, [v for v in range(g.n) if v != hubs[0]])
    order = cycle_order(rim)
    return None if order is None else (hubs[0], [ids[i] for i in order])


def test_wheel_order_matches_the_induced_rim_reference():
    rng = random.Random(44)
    graphs = []
    for n in range(4, 14):
        for _ in range(4):
            perm = list(range(n))
            rng.shuffle(perm)
            w = wheel_graph(n)
            graphs.append(SimpleGraph(n, [(perm[u], perm[v]) for u, v in w.edges]))
    # a hub over two disjoint rim triangles: every degree test passes
    two_rims = SimpleGraph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] + [(6, v) for v in range(6)])
    assert wheel_order(two_rims) is None
    graphs.append(two_rims)
    graphs += [random_connected_graph(n, rng.randrange(0, 12), rng) for n in range(5, 10) for _ in range(40)]
    wheels = 0
    for g in graphs:
        expected = _wheel_reference(g)
        assert wheel_order(g) == expected, g.edges
        wheels += expected is not None
    assert wheels == 36  # the order-4 wheels are K4, with no unique hub


def test_path_order_turns_a_degree_three_vertex_away_before_walking():
    # K1 beside a 4-cycle with two pendant edges: m = n - 1 and two leaves,
    # but the walk from leaf 5 would circle the 4-cycle forever
    g = SimpleGraph(7, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 5), (3, 6)])
    assert path_order(g) is None
    assert not recognize_t_prime(g).member


def test_the_empty_graph_is_no_cycle():
    g = SimpleGraph(0, [])
    assert path_order(g) is None and cycle_order(g) is None
    assert not recognize_t_prime(g).member


def test_a_single_vertex_is_no_wheel():
    assert wheel_order(SimpleGraph(1, [])) is None
    assert wheel_order(complete_graph(4)) is None  # classified as complete


def test_triangles_sharing_an_edge_make_no_family_member():
    # the diamond 3, 4, 6, 7 between the triangle 0, 1, 2 and the pendant
    # edge 4-5: without the vertex-disjointness test, the bridge walks would
    # place every vertex and return a witness, yet the graph decomposes
    g = SimpleGraph(8, [(0, 1), (0, 2), (1, 2), (2, 7), (3, 6), (3, 4), (4, 6), (3, 7), (6, 7), (4, 5)])
    assert t_family_witness(g) is None
    assert not recognize_t_prime(g).member
    assert is_decomposable(g).found


def test_a_degree_three_vertex_off_the_triangles_ends_the_scan():
    # a 4-cycle whose vertex 0 joins the triangle 4, 5, 6, beside an edge:
    # m = n - 1 + #triangles, and the bridge walk from 6 would circle the
    # 4-cycle forever
    g = SimpleGraph(9, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (4, 6), (5, 6), (0, 6), (7, 8)])
    assert t_family_witness(g) is None
    assert not recognize_t_prime(g).member


def test_the_family_witness_lists_attachments_breadth_first():
    # triangles 3-5 and 6-8 hang off the root 0-2, and 9-11 and 12-14 off
    # those two: both children of the root come before any grandchild
    triangles = [e for a in range(0, 15, 3) for e in ((a, a + 1), (a, a + 2), (a + 1, a + 2))]
    g = SimpleGraph(15, triangles + [(0, 3), (1, 6), (4, 9), (7, 12)])
    assert t_family_witness(g) == TWitness(
        root=(0, 1, 2),
        steps=[
            Attachment(0, [0, 3], (4, 5)),
            Attachment(1, [1, 6], (7, 8)),
            Attachment(4, [4, 9], (10, 11)),
            Attachment(7, [7, 12], (13, 14)),
        ],
    )
