"""Constructive colorers for the standard graph classes."""

import itertools
import random
import time
import typing

import pytest

from lirdec.classify import (
    ClassKind,
    classify,
    multipartite_parts,
)
from lirdec.colorers import (
    BB,
    RB,
    CYCLE_BASE,
    RR,
    color_double_auto,
    cycle_states,
    multipartite_states,
    path_assign,
    path_states,
    ring_assign,
)
from lirdec.decomposition import Decomposition, verify
from lirdec.graphs import (
    SimpleGraph,
    canon_edge,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    double,
    path_graph,
    wheel_graph,
)
from lirdec.solver import SearchLimits, exact_lir_multigraph

from oracle import (
    bowtie_graph,
    color_degree_table,
    color_double_complete,
    color_double_cycle,
    color_double_multipartite,
    color_double_multipartite_reference,
    color_double_path,
    color_double_wheel,
    color_multipartite_graph_reference,
    color_t_family_3,
    colors_used,
    cycle_states_brute,
    part_matrices,
    part_matrix,
    part_matrix_valid,
    size_vectors,
    t_family_members,
)


def test_even_path_pattern():
    # two blue multiedges then two red, repeating
    assert path_states(4) == [BB, BB, RR, RR]
    assert path_states(8) == [BB, BB, RR, RR, BB, BB, RR, RR]


def test_odd_path_pattern():
    # blue, red-blue, red, then the even pattern
    assert path_states(3) == [BB, RB, RR]
    assert path_states(7) == [BB, RB, RR, BB, BB, RR, RR]


def test_doubled_p3_blue_degrees():
    d = color_double_path(3)
    assert [row[1] for row in color_degree_table(d)] == [2, 4, 2]


def test_path_rejects_k2():
    with pytest.raises(ValueError, match="no locally irregular"):
        color_double_path(2)


@pytest.mark.parametrize("n", range(3, 41))
def test_paths_verify(n):
    assert verify(color_double_path(n)).valid


def test_cycle_base_table():
    assert CYCLE_BASE[3] == (RR, RB, BB)
    for length in range(4, 8):
        states = CYCLE_BASE[length]
        # splice anchor: two cyclically adjacent all-red multiedges up front
        assert states[0] == RR and states[1] == RR
        assert verify(color_double_cycle(length)).valid


def test_cycle_base_table_is_the_brute_force_result():
    # lengths 4..7 are the first anchored vectors of the base-3 count; the
    # triangle's entry is the complete-graph seed, and the count (no anchor
    # fits a triangle) meets its red/blue swap first
    for length in range(4, 8):
        assert list(CYCLE_BASE[length]) == cycle_states_brute(length), length
    assert cycle_states_brute(3) == [BB, RB, RR]
    assert verify(color_double_cycle(3)).valid
    assert color_double_cycle(3).assign == color_double_complete(3).assign


def test_cycle_length_eight_splice():
    # one BB,BB,RR,RR block inserted right after the base-4 anchor
    base = list(CYCLE_BASE[4])
    assert cycle_states(8) == base[:2] + [BB, BB, RR, RR] + base[2:]
    # frozen from the deterministic exhaustive search
    assert cycle_states(8) == [RR, RR, BB, BB, RR, RR, RB, RB]


def test_cycle_eleven_uses_base_seven():
    states = cycle_states(11)
    assert states[:2] == [RR, RR]
    assert states[2:6] == [BB, BB, RR, RR]
    assert len(states) == 11


@pytest.mark.parametrize("length", range(3, 41))
def test_cycles_verify(length):
    assert verify(color_double_cycle(length)).valid


def test_cycle_rejects_short():
    with pytest.raises(ValueError):
        color_double_cycle(2)


@pytest.mark.parametrize("n", range(4, 21))
def test_wheels_verify(n):
    d = color_double_wheel(n)
    assert verify(d).valid
    if n > 4:
        table = color_degree_table(d)
        hub_red = table[n - 1][0]
        assert all(hub_red > table[v][0] for v in range(n - 1))


def test_wheel_spokes_are_red():
    d = color_double_wheel(7)
    for v in range(6):
        assert d.assign[(v, 6)] == RR


def test_wheel_rejects_small():
    with pytest.raises(ValueError):
        color_double_wheel(3)


@pytest.mark.parametrize("n", range(3, 13))
def test_completes_verify(n):
    assert verify(color_double_complete(n)).valid


def test_complete_three_is_triangle_pattern():
    d = color_double_complete(3)
    assert d.assign == {(0, 1): RR, (1, 2): RB, (0, 2): BB}


def test_complete_four_blue_degrees():
    d = color_double_complete(4)
    assert [row[1] for row in color_degree_table(d)] == [4, 3, 5, 6]


def test_complete_alternation():
    d = color_double_complete(6)
    assert d.assign[(0, 3)] == BB
    assert d.assign[(0, 4)] == RR
    assert d.assign[(0, 5)] == BB


def test_complete_rejects_small():
    with pytest.raises(ValueError):
        color_double_complete(2)


def test_unbalanced_bipartite_is_all_red():
    d = color_double_multipartite([2, 3])
    assert all(counts == RR for counts in d.assign.values())
    assert verify(d).valid


def test_balanced_bipartite_one_red_vertex():
    d = color_double_multipartite([3, 3])
    red_edges = [e for e, c in d.assign.items() if c == RR]
    touched = {v for e in red_edges for v in e}
    assert len(red_edges) == 3 and len(touched & {0, 1, 2}) <= 1 or len(touched) == 4
    assert verify(d).valid


def test_k222_matches_stated_degrees():
    d = color_double_multipartite([2, 2, 2])
    table = [tuple(row) for row in color_degree_table(d)]
    assert sorted(table) == sorted([(6, 2), (6, 2), (2, 6), (2, 6), (4, 4), (4, 4)])
    assert verify(d).valid


def test_k111_is_valid_triangle():
    assert verify(color_double_multipartite([1, 1, 1])).valid


def test_multipartite_rejects_k2():
    with pytest.raises(ValueError, match="no locally irregular"):
        color_double_multipartite([1, 1])


@pytest.mark.parametrize("length", [-1, 0, 1, 2])
def test_cycle_states_rejects_a_length_below_three(length):
    with pytest.raises(ValueError, match="cycle needs length >= 3"):
        cycle_states(length)


def test_the_constructions_type_hints_resolve():
    # State appears in annotations only
    hints = typing.get_type_hints(multipartite_states)
    assert hints["return"] == list[tuple[int, int]]
    for f in (path_states, cycle_states, path_assign, ring_assign, color_double_auto):
        assert typing.get_type_hints(f)["return"]


@pytest.mark.parametrize(
    "g", [path_graph(2), SimpleGraph(1, []), SimpleGraph(3, [])], ids=["K2", "K1", "edgeless3"]
)
def test_auto_covers_no_graph_below_three_vertices_or_without_edges(g):
    # no doubled K2 coloring exists, and an edgeless graph has nothing to double
    assert color_double_auto(g) is None


def test_multipartite_all_totals_through_ten():
    for total in range(3, 11):
        for k in range(2, total + 1):
            for sizes in itertools.combinations_with_replacement(
                range(1, total), k
            ):
                if sum(sizes) != total:
                    continue
                assert verify(color_double_multipartite(list(sizes))).valid, sizes


def test_t_family_three_coloring():
    members = t_family_members(12)
    assert len(members) >= 10
    for g, w in members:
        d = color_t_family_3(g, w)
        assert verify(d).valid
        assert colors_used(d) <= 3


def test_t_family_triangle_uses_two_colors():
    assert colors_used(color_t_family_3(cycle_graph(3))) == 2


def test_t_family_rejects_non_members():
    with pytest.raises(ValueError, match="not in the triangle family"):
        color_t_family_3(path_graph(4))


def test_t_family_members_two_colorable_by_solver():
    # the stronger two-color claim holds on small members (checked, not constructed)
    from lirdec.graphs import double

    for g, _ in t_family_members(12):
        res = exact_lir_multigraph(double(g), SearchLimits(max_colors=2))
        assert res.found and res.colors == 2


def test_auto_dispatch_relabels_correctly():
    rng = random.Random(3)
    samples = [
        path_graph(6),
        cycle_graph(9),
        wheel_graph(8),
        complete_multipartite_graph([2, 2, 3]),
        bowtie_graph(),
    ]
    for g in samples:
        # shuffle vertex labels; the dispatcher must still color the image
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled = SimpleGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        d = color_double_auto(relabeled)
        if d is None:
            assert g.n == bowtie_graph().n  # no two-colorer covers the bow-tie
        else:
            assert verify(d).valid


def test_auto_dispatch_handles_generic_bipartite():
    g = SimpleGraph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6)])
    d = color_double_auto(g)
    assert d is not None and verify(d).valid


def _relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return SimpleGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def test_multipartite_matches_the_canonical_then_relabeled_reference():
    rng = random.Random(977)
    vectors = size_vectors(6, 18)
    assert len(vectors) == 977
    other_class = []
    for sizes in vectors:
        if sizes == [1, 1]:
            continue  # K2: test_multipartite_rejects_k2
        d = color_double_multipartite(sizes)
        h = _relabel(complete_multipartite_graph(sizes), rng)
        states = multipartite_states(h, multipartite_parts(h))
        tag = classify(h)
        auto = color_double_auto(h, tag)
        assert d == color_double_multipartite_reference(sizes)
        expected = color_multipartite_graph_reference(h)
        assert Decomposition(expected.host, 2, states) == expected, sizes
        if tag.kind is ClassKind.COMPLETE_MULTIPARTITE:
            assert auto == expected, sizes
        else:
            # caught first by a more specific class (path, cycle, complete, wheel)
            other_class.append(tuple(sizes))
            assert verify(auto).valid, sizes
    assert sorted(other_class) == sorted(
        [(2, 1), (2, 2), (1, 1, 1), (2, 2, 1), (1, 1, 1, 1), (1,) * 5, (1,) * 6]
    )


def test_multipartite_matches_the_reference_on_every_vector_up_to_twelve_vertices():
    vectors = [sizes for sizes in size_vectors(12, 12) if sizes != [1, 1]]
    for sizes in vectors:
        for ordered in (sizes, sizes[::-1]):
            assert color_double_multipartite(ordered) == (
                color_double_multipartite_reference(ordered)
            ), ordered


def _canonical_parts(sizes):
    bounds = list(itertools.accumulate(sizes, initial=0))
    return [list(range(bounds[i], bounds[i + 1])) for i in range(len(sizes))]


def _matrix_verifies(sizes, st):
    """Expand a part-level matrix onto the canonical host and run verify."""
    parts = _canonical_parts(sizes)
    host = double(complete_multipartite_graph(list(sizes)))
    assign = {
        canon_edge(u, v): state
        for (i, j), state in st.items()
        for u in parts[i]
        for v in parts[j]
    }
    return verify(Decomposition(host, 2, assign)).valid


def _vectors_with_total(total, parts):
    return [
        list(v)
        for v in itertools.combinations_with_replacement(range(1, total), parts)
        if sum(v) == total
    ]


def test_part_matrix_check_agrees_with_verify_on_every_matrix_up_to_five_parts():
    matrices = valid = 0
    for total in range(3, 11):
        for k in range(3, 6):
            for sizes in _vectors_with_total(total, k):
                for st in part_matrices(sizes):
                    ok = part_matrix_valid(sizes, st)
                    assert ok == _matrix_verifies(sizes, st), (sizes, st)
                    matrices += 1
                    valid += ok
    assert matrices > 6000 and 0 < valid < matrices


def test_part_matrix_colors_every_vector_up_to_eight_parts():
    vectors = [s for s in size_vectors(8, 24) if len(s) >= 3]
    assert len(vectors) == 4776
    for sizes in vectors:
        st = part_matrix(sizes)
        assert sorted(st) == list(itertools.combinations(range(len(sizes)), 2))
        assert part_matrix_valid(sizes, st), sizes
        assert _matrix_verifies(sizes, st), sizes


def test_part_matrix_colors_one_part_and_up_to_two_hundred_singletons():
    for s in range(1, 7):
        for ones in range(2, 201):
            sizes = [s] + [1] * ones
            st = part_matrix(sizes)
            assert part_matrix_valid(sizes, st), (s, ones)
            if len(sizes) <= 24:
                assert _matrix_verifies(sizes, st), (s, ones)


@pytest.mark.parametrize("sizes", [[1] * 40 + [3], [1] * 40 + [4], [1] * 39 + [3]])
def test_singletons_and_a_small_part_color_at_once(sizes):
    # an exhaustive part-pair search took seconds on each of these
    start = time.perf_counter()
    d = color_double_multipartite(sizes)
    assert time.perf_counter() - start < 1.0
    assert verify(d).valid


def test_complete_graph_is_the_multipartite_construction_on_singletons():
    # the doubled-triangle seed on 0, 1, 2, then each later vertex paints
    # all its multiedges to earlier vertices BB, RR, BB, ...
    for n in range(3, 60):
        expected = {(0, 1): RR, (1, 2): RB, (0, 2): BB}
        for v in range(3, n):
            expected.update(dict.fromkeys(((u, v) for u in range(v)), (BB, RR)[(v - 3) % 2]))
        assert color_double_complete(n).assign == expected, n
        g = complete_graph(n)
        assert dict(zip(g.edges, multipartite_states(g, [[v] for v in range(n)]))) == expected, n


def test_auto_colors_a_relabelled_complete_graph():
    rng = random.Random(5)
    for n in (4, 5, 9, 17):
        g = _relabel(complete_graph(n), rng)
        tag = classify(g)
        assert tag.kind is ClassKind.COMPLETE
        d = color_double_auto(g, tag)
        assert verify(d).valid
        assert d == color_double_complete(n)


def test_multipartite_states_rejects_bad_parts():
    with pytest.raises(ValueError, match="need >= 2 parts"):
        multipartite_states(SimpleGraph(3, []), [[0, 1, 2]])
    with pytest.raises(ValueError, match="need >= 2 parts"):
        multipartite_states(SimpleGraph(1, []), [[0], []])
    with pytest.raises(ValueError, match="no locally irregular"):
        multipartite_states(SimpleGraph(10, [(5, 9)]), [[5], [9]])


def test_auto_reuses_what_classify_found(monkeypatch):
    """color_double_auto colors from the tag's order, hub and parts, so each
    recognizer runs at most once per graph (in classify)."""
    import sys

    rng = random.Random(21)
    graphs = [path_graph(9), cycle_graph(10), wheel_graph(9), complete_graph(6)]
    graphs += [complete_multipartite_graph(s) for s in ([2, 3, 4], [1, 1, 1, 1, 1, 3], [3, 5])]
    graphs = [_relabel(g, rng) for g in graphs]
    names = ("path_order", "cycle_order", "wheel_order", "multipartite_parts")
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(sys.modules["lirdec.classify"], name)

        def counted(g, _name=name, _original=original):
            calls[_name] += 1
            return _original(g)

        for key, mod in list(sys.modules.items()):
            if key.startswith("lirdec") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    for g in graphs:
        for name in names:
            calls[name] = 0
        tag = classify(g)
        d = color_double_auto(g, tag)
        assert verify(d).valid
        assert all(c <= 1 for c in calls.values()), (tag.kind, calls)
        found_by = {
            ClassKind.PATH: "path_order",
            ClassKind.CYCLE: "cycle_order",
            ClassKind.WHEEL: "wheel_order",
            ClassKind.COMPLETE_MULTIPARTITE: "multipartite_parts",
        }.get(tag.kind)
        if found_by is not None:
            assert calls[found_by] == 1, tag.kind


def test_classification_carries_the_recognized_structure():
    g = SimpleGraph(6, [(0, 5), (5, 2), (2, 4), (4, 1), (1, 3)])
    assert classify(g).order == [0, 5, 2, 4, 1, 3]
    g = SimpleGraph(5, [(0, 3), (3, 1), (1, 4), (4, 2), (2, 0)])
    assert classify(g).order == [0, 2, 4, 1, 3]
    tag = classify(SimpleGraph(6, [(0, 2), (2, 4), (4, 5), (5, 1), (1, 0)] + [(3, v) for v in (0, 1, 2, 4, 5)]))
    assert (tag.kind, tag.hub, tag.order) == (ClassKind.WHEEL, 3, [0, 1, 5, 4, 2])
    tag = classify(complete_multipartite_graph([3, 2]))
    assert tag.parts == [[0, 1, 2], [3, 4]]
    assert (tag.kind, tag.part_sizes) == (ClassKind.COMPLETE_MULTIPARTITE, (2, 3))
