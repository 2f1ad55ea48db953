"""Bipartite two-coloring: path systems, twin splits, the full construction."""

import collections
import hashlib
import random

import pytest

from lirdec.bipartite import color_double_bipartite, find_twin_split, path_system
from lirdec.decomposition import BB, RB, RR, Decomposition, verify
from lirdec.enumeration import (
    enumerate_connected_bipartite,
    random_connected_bipartite,
)
from lirdec.graph_io import parse_graph6
from lirdec.graphs import (
    SimpleGraph,
    bipartition_sides,
    canon_edge,
    complete_multipartite_graph,
    cycle_graph,
    double,
    path_graph,
)
from lirdec.solver import SearchLimits, SearchStatus, exact_lir_multigraph

from oracle import (
    color_degree_table,
    degree_parity,
    find_twin_split_reference,
    induced_subgraph,
    parity_profile,
    random_connected_graph,
)


def test_bipartition_p4():
    # X is the class of vertex 0; both sides come sorted
    assert bipartition_sides(path_graph(4)) == ([0, 2], [1, 3])


def test_bipartition_c6_sides():
    x, y = bipartition_sides(cycle_graph(6))
    assert {len(x), len(y)} == {3}


def test_bipartition_rejects_odd_cycle():
    assert bipartition_sides(cycle_graph(5)) is None
    with pytest.raises(ValueError, match="not bipartite"):
        color_double_bipartite(cycle_graph(5))
    with pytest.raises(ValueError, match="requires a connected graph"):
        color_double_bipartite(SimpleGraph(4, [(0, 1), (2, 3)]))


def test_path_system_unique_path():
    j = path_system(path_graph(3), {0, 2})
    assert j == frozenset({(0, 1), (1, 2)})


def test_path_system_empty_terminals():
    assert path_system(cycle_graph(4), set()) == frozenset()


def test_path_system_c4_opposite_pair():
    j = path_system(cycle_graph(4), {0, 2})
    # one of the two arcs; parity is what matters
    assert degree_parity(4, j) == [1, 0, 1, 0]


def test_path_system_rejects_odd_terminals():
    with pytest.raises(ValueError, match="even"):
        path_system(path_graph(3), {0})


def test_path_system_rejects_foreign_terminals():
    with pytest.raises(ValueError, match="outside"):
        path_system(path_graph(3), {0, 7})


@pytest.mark.parametrize("terminals,region", [({-1, 0}, None), ({0, 2}, [0, 1])], ids=["negative", "off-region"])
def test_path_system_rejects_terminals_below_zero_or_off_the_region(terminals, region):
    with pytest.raises(ValueError, match="terminal outside the graph"):
        path_system(path_graph(3), terminals, region)


def test_path_system_parity_property():
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randrange(2, 14)
        g = random_connected_graph(n, rng.randrange(0, n), rng)
        pool = list(range(n))
        rng.shuffle(pool)
        terms = set(pool[: 2 * rng.randrange(0, n // 2 + 1)])
        j = path_system(g, terms)
        par = degree_parity(n, j)
        assert all(par[v] == (1 if v in terms else 0) for v in range(n))


def test_parity_after_coloring():
    # terminals end up odd in red and blue, everyone else even in both
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randrange(3, 12)
        g = random_connected_graph(n, rng.randrange(0, n), rng)
        pool = list(range(n))
        rng.shuffle(pool)
        terms = set(pool[: 2 * rng.randrange(1, max(2, n // 2))])
        j = path_system(g, terms)
        d = Decomposition(
            double(g), 2, {e: RB if e in j else BB for e in g.edges}
        )
        prof = parity_profile(d)
        assert all(
            prof[v] == ((1, 1) if v in terms else (0, 0)) for v in range(n)
        )


def _path_system_on_induced_subgraph(g, terminals, region):
    """path_system run on the relabelled induced subgraph, mapped back to
    g's labels."""
    sub, ids = induced_subgraph(g, region)
    pos = {v: i for i, v in enumerate(ids)}
    join = path_system(sub, {pos[v] for v in terminals})
    return frozenset(canon_edge(ids[a], ids[b]) for a, b in join)


def test_path_system_in_a_region_equals_it_on_the_induced_subgraph():
    rng = random.Random(1414)
    for _ in range(1000):
        n = rng.randrange(2, 16)
        g = random_connected_graph(n, rng.randrange(0, 2 * n), rng)
        # a connected region: a random walk's vertex set
        v = rng.randrange(n)
        region = {v}
        for _ in range(rng.randrange(0, 2 * n)):
            v = rng.choice(g.adj[v])
            region.add(v)
        pool = sorted(region)
        rng.shuffle(pool)
        terms = set(pool[: 2 * rng.randrange(0, len(pool) // 2 + 1)])
        join = path_system(g, terms, region)
        assert join == _path_system_on_induced_subgraph(g, terms, region), g.edges
        assert all(u in region and w in region for u, w in join)
        assert path_system(g, terms, range(n)) == path_system(g, terms)


def test_path_system_region_must_be_connected_and_hold_the_terminals():
    g = path_graph(5)
    with pytest.raises(ValueError, match="connected"):
        path_system(g, {0, 4}, [0, 1, 3, 4])
    with pytest.raises(ValueError, match="outside"):
        path_system(g, {0, 4}, [0, 1, 2])
    assert path_system(g, set(), []) == frozenset()


def test_twin_split_star():
    s, t, xp, yp = find_twin_split(complete_multipartite_graph([1, 4]))
    # both corners are twin classes with empty residue; the tie-break picks
    # the lexicographically smaller set
    assert not xp and not yp
    assert s + t == [0, 1, 2, 3, 4]


def test_twin_split_c6():
    s, t, xp, yp = find_twin_split(cycle_graph(6))
    assert s == [0]
    assert t == [1, 5]
    assert xp == [2, 4] and yp == [3]


def test_twin_split_k33_takes_a_full_side():
    s, t, xp, yp = find_twin_split(complete_multipartite_graph([3, 3]))
    assert len(s) == 3 and len(t) == 3
    assert not xp and not yp


def test_twin_split_structural_invariants():
    rng = random.Random(31)
    for _ in range(120):
        g = random_connected_bipartite(rng.randrange(3, 16), rng)
        s, t, xp, yp = find_twin_split(g)
        # every part comes sorted, and together they cover g once
        assert all(part == sorted(part) for part in (s, t, xp, yp))
        assert sorted(s + t + xp + yp) == list(range(g.n))
        # no S vertex touches the residue's far side
        for v in s:
            assert not (set(g.adj[v]) & set(yp))
        # every T vertex keeps a neighbor in the residue when it exists
        if xp:
            for w in t:
                assert set(g.adj[w]) & set(xp)


def test_k12_coloring():
    d = color_double_bipartite(path_graph(3))
    assert set(d.assign.values()) == {RB}
    assert [r for r, _ in color_degree_table(d)] == [1, 2, 1]


def test_c6_coloring_matches_derived_degrees():
    d = color_double_bipartite(cycle_graph(6))
    assert [r for r, _ in color_degree_table(d)] == [0, 2, 3, 2, 3, 2]
    assert verify(d).valid


def test_k33_routes_to_balanced_bipartite_rule():
    d = color_double_bipartite(complete_multipartite_graph([3, 3]))
    assert verify(d).valid
    red_units = sum(c[0] for c in d.assign.values())
    assert red_units == 6  # one vertex's three multiedges fully red


def test_rejects_k2():
    with pytest.raises(ValueError, match="no locally irregular"):
        color_double_bipartite(path_graph(2))


def test_rejects_non_bipartite():
    with pytest.raises(ValueError, match="not bipartite"):
        color_double_bipartite(cycle_graph(5))


def test_even_side_branch_parities():
    # after branch (a): X odd in both colors, Y even in both
    g = path_graph(4)  # sides {0,2} and {1,3}, both even: X preferred
    d = color_double_bipartite(g)
    prof = parity_profile(d)
    assert prof[0] == (1, 1) and prof[2] == (1, 1)
    assert prof[1] == (0, 0) and prof[3] == (0, 0)


@pytest.mark.parametrize("n", range(3, 10))
def test_exhaustive_small_bipartite(n):
    for g in enumerate_connected_bipartite(n):
        report = verify(color_double_bipartite(g))
        assert report.valid, (n, g.edges, report.conflicts[:3])


def test_random_bipartite_up_to_sixty():
    rng = random.Random(20260808)
    for _ in range(500):
        g = random_connected_bipartite(rng.randrange(3, 61), rng)
        assert verify(color_double_bipartite(g)).valid


def _branch_of(g):
    """Which case of the both-sides-odd analysis handles g."""
    x, y = bipartition_sides(g)
    if len(x) % 2 == 0 or len(y) % 2 == 0:
        return "even-side"
    s_list, t_list, xp, yp = find_twin_split(g, (x, y))
    if not xp and not yp:
        return "complete-bipartite"
    s, t = len(s_list), len(t_list)
    if s % 2 == 1:
        return "case1"
    rich = [
        y0
        for y0 in t_list
        if sum(1 for w in g.adj[y0] if w in xp) >= 2
    ]
    if s != t:
        return "case2a"
    return "case2b" if rich else "case2b-repair"


# smallest catalog members driving each rare branch of the construction
CASE2A = SimpleGraph(6, [(0, 1), (0, 2), (0, 4), (1, 3), (1, 5)])
CASE2B_REPAIR = SimpleGraph(
    8, [(0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (1, 6), (1, 7), (2, 3), (3, 4)]
)
CASE2B = SimpleGraph(
    10,
    [
        (0, 1), (0, 2), (0, 4), (0, 6), (0, 7), (1, 3), (1, 5), (2, 3),
        (2, 5), (3, 4), (3, 6), (4, 5), (5, 7), (6, 8), (6, 9), (7, 8), (7, 9),
    ],
)

# a Case 2b repair with |T| = 4: the twins S = 0..3 on T = 4..7, whose one
# residue neighbour each is 8, and the residue 8..12 x 13..17 complete; every
# other twin class scores more than |S| + |T| = 8
CASE2B_REPAIR_WIDE = SimpleGraph(
    18,
    [(s, t) for s in range(4) for t in range(4, 8)]
    + [(t, 8) for t in range(4, 8)]
    + [(x, y) for x in range(8, 13) for y in range(13, 18)],
)


def test_subcase_2b_repaints_the_first_t_vertex_after_y0():
    g = CASE2B_REPAIR_WIDE
    assert find_twin_split(g) == ([0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11, 12], [13, 14, 15, 16, 17])
    assert _branch_of(g) == "case2b-repair"
    d = color_double_bipartite(g)
    assert verify(d).valid
    # the hook 0-4-8 is red-blue, the S edges of 5 (not of 7) are repainted red
    corner = {e: state for e, state in d.assign.items() if e[0] < 4}
    assert corner == {(s, t): RB if t == 4 and s == 0 else RR if t == 5 else BB for s in range(4) for t in range(4, 8)}


def test_subcase_2b_hooks_at_the_first_rich_t_vertex():
    # S = {0, 3}, T = {1, 2}, and both T vertices see 4, 5 and 6 in X': the
    # hook is 0-1-4, not 3-2-4
    g = SimpleGraph(8, [(0, 1), (0, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (4, 7), (5, 7), (6, 7)])
    assert find_twin_split(g) == ([0, 3], [1, 2], [4, 5, 6], [7])
    assert _branch_of(g) == "case2b"
    d = color_double_bipartite(g)
    assert verify(d).valid
    assert [e for e, state in d.assign.items() if state == RB] == [(0, 1), (1, 4), (5, 7), (6, 7)]


@pytest.mark.parametrize(
    "g,branch",
    [
        (cycle_graph(6), "case1"),
        (CASE2A, "case2a"),
        (CASE2B, "case2b"),
        (CASE2B_REPAIR, "case2b-repair"),
        (complete_multipartite_graph([3, 3]), "complete-bipartite"),
        (path_graph(4), "even-side"),
    ],
)
def test_every_construction_branch(g, branch):
    assert _branch_of(g) == branch
    assert verify(color_double_bipartite(g)).valid


# sha256 over the witness vectors of every twin-split graph below, as the
# corner painting wrote them with one hand-written copy per case
TWIN_SPLIT_SHA256 = "88b8d638b7319bc94e9d089c9aff973a34c108c986d06a95d8f111b91e68d938"


def test_twin_split_witnesses_are_byte_identical():
    # every seeded random graph with both sides odd, plus GrdAA?, the only
    # Case 2b repair graph among connected bipartite graphs on <= 9 vertices
    graphs = []
    for n in range(5, 40):
        for seed in range(100):
            g = random_connected_bipartite(n, random.Random(seed))
            x, y = bipartition_sides(g)
            if len(x) % 2 == 1 and len(y) % 2 == 1:
                graphs.append(g)
    graphs.append(parse_graph6("GrdAA?"))
    digest = hashlib.sha256()
    for g in graphs:
        digest.update(repr(color_double_bipartite(g).vectors).encode())
    assert collections.Counter(map(_branch_of, graphs)) == {
        "case1": 843,
        "case2a": 18,
        "case2b": 2,
        "case2b-repair": 1,
        "complete-bipartite": 14,
    }
    assert digest.hexdigest() == TWIN_SPLIT_SHA256


def test_agrees_with_exact_solver_on_small_graphs():
    # the solver always finds k<=2 where the construction succeeds, and the
    # construction never fails on connected bipartite inputs (theorem)
    for n in range(3, 8):
        for g in enumerate_connected_bipartite(n):
            d = color_double_bipartite(g)
            assert verify(d).valid
            res = exact_lir_multigraph(double(g), SearchLimits(max_colors=2))
            assert res.status is SearchStatus.FOUND


def _random_bipartite(rng):
    """Connected bipartite graph: sides of random sizes, a random spanning
    tree across them, then every cross pair with a random density."""
    n = rng.randrange(3, 41)
    a = rng.randrange(1, n)
    density = rng.uniform(0.05, 0.9)
    xs, ys = list(range(a)), list(range(a, n))
    placed = [[xs[0]], [ys[0]]]
    edges = {(xs[0], ys[0])}
    later = xs[1:] + ys[1:]
    rng.shuffle(later)
    for v in later:
        side = 0 if v < a else 1
        edges.add(tuple(sorted((v, rng.choice(placed[1 - side])))))
        placed[side].append(v)
    edges |= {(x, y) for x in xs for y in ys if rng.random() < density}
    return SimpleGraph(n, edges)


def _twin_split_or_none(find, g):
    try:
        return find(g)
    except ValueError:
        return None


def test_twin_split_matches_the_all_candidates_reference_on_the_catalog():
    checked = 0
    for n in range(1, 9):
        for g in enumerate_connected_bipartite(n):
            expected = _twin_split_or_none(find_twin_split_reference, g)
            assert _twin_split_or_none(find_twin_split, g) == expected, g.edges
            assert find_twin_split(g, bipartition_sides(g)) == expected, g.edges
            checked += 1
    assert checked == 254  # 1 + 1 + 1 + 3 + 5 + 17 + 44 + 182


def test_twin_split_matches_the_all_candidates_reference_on_random_graphs():
    rng = random.Random(20261018)
    both_odd = 0
    for _ in range(3000):
        g = _random_bipartite(rng)
        expected = _twin_split_or_none(find_twin_split_reference, g)
        assert _twin_split_or_none(find_twin_split, g) == expected, g.edges
        x, y = bipartition_sides(g)
        both_odd += len(x) % 2 == 1 and len(y) % 2 == 1
    assert both_odd > 500  # the colorer's twin-split branch is well covered


@pytest.mark.parametrize(
    "g", [path_graph(2), SimpleGraph(1, []), SimpleGraph(2, [])], ids=["K2", "K1", "two-vertices"]
)
def test_bipartite_colorer_rejects_every_graph_on_at_most_two_vertices(g):
    with pytest.raises(ValueError, match="no locally irregular coloring exists for a doubled K2"):
        color_double_bipartite(g)


def test_twin_split_rejects_odd_cycles_and_disconnected_graphs():
    with pytest.raises(ValueError, match="twin split not found"):
        find_twin_split(cycle_graph(5))
    with pytest.raises(ValueError, match="connected"):
        find_twin_split(SimpleGraph(4, [(0, 1), (2, 3)]))


def _count_walks(monkeypatch):
    """Count SimpleGraph.is_connected walks, the one walk that 2-colors."""
    walks = [0]
    is_connected = SimpleGraph.is_connected

    def counted(self, *args):
        walks[0] += 1
        return is_connected(self, *args)

    monkeypatch.setattr(SimpleGraph, "is_connected", counted)
    return walks


def test_bipartition_is_computed_once_per_coloring(monkeypatch):
    from lirdec.colorers import color_double_auto

    graphs = [CASE2A, CASE2B, CASE2B_REPAIR, cycle_graph(6), path_graph(4)]
    rng = random.Random(11)
    graphs += [random_connected_bipartite(rng.randrange(3, 30), rng) for _ in range(40)]
    walks = _count_walks(monkeypatch)
    for g in graphs:
        walks[0] = 0
        assert verify(color_double_bipartite(g)).valid
        assert walks[0] == 1, g.edges
        sides = bipartition_sides(g)
        walks[0] = 0
        find_twin_split(g, sides)
        assert walks[0] == 0, g.edges  # a given bipartition is used as is
        walks[0] = 0
        find_twin_split(g)
        assert walks[0] == 1, g.edges
    walks[0] = 0
    # a generic bipartite graph through the dispatcher: classify's walk
    # found the sides, so nothing walks the graph again
    assert verify(color_double_auto(CASE2B)).valid
    assert walks[0] == 1


def test_check_graph_walks_a_bipartite_other_graph_once(monkeypatch):
    from lirdec.harness import check_graph

    walks = _count_walks(monkeypatch)
    rng = random.Random(12)
    graphs = [CASE2A, CASE2B, CASE2B_REPAIR]
    graphs += [random_connected_bipartite(rng.randrange(6, 30), rng) for _ in range(20)]
    for g in graphs:
        walks[0] = 0
        record = check_graph(g)
        assert (record.class_tag, record.method) == ("other", "constructive"), g.edges
        assert walks[0] == 1, g.edges
