"""Graph catalogs: counts against published values, canonical dedup."""

import random

import pytest

from lirdec.enumeration import (
    canonical_key,
    enumerate_connected,
    enumerate_connected_bipartite,
    random_connected_bipartite,
)
from lirdec.graph_io import to_graph6
from lirdec.graphs import SimpleGraph, bipartition_sides, cycle_graph, path_graph


# published counts of connected graphs on n unlabeled vertices
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


@pytest.mark.parametrize("n,count", sorted(CONNECTED_COUNTS.items()))
def test_connected_counts(n, count):
    assert len(enumerate_connected(n)) == count


def test_connected_count_at_the_builtin_ceiling():
    # slowest catalog the built-in enumerator supports
    assert len(enumerate_connected(8)) == 11117


def test_enumeration_limit():
    with pytest.raises(ValueError, match="graph6 file"):
        enumerate_connected(9)


def test_canonical_key_invariant_under_relabeling():
    rng = random.Random(12)
    g = SimpleGraph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 4)])
    for _ in range(20):
        perm = list(range(7))
        rng.shuffle(perm)
        h = SimpleGraph(7, [(perm[u], perm[v]) for u, v in g.edges])
        assert canonical_key(h) == canonical_key(g)


def test_canonical_key_separates_non_isomorphic():
    assert canonical_key(path_graph(4)) != canonical_key(cycle_graph(4))
    star = SimpleGraph(4, [(0, 1), (0, 2), (0, 3)])
    assert canonical_key(star) != canonical_key(path_graph(4))


def test_all_enumerated_graphs_connected_and_distinct():
    for n in range(2, 7):
        cat = enumerate_connected(n)
        keys = {canonical_key(g) for g in cat}
        assert len(keys) == len(cat)
        assert all(g.is_connected() for g in cat)


def test_bipartite_catalog_equals_filtered_catalog():
    # independent cross-check: filter the full catalog by two-colorability
    for n in range(2, 8):
        full = {
            canonical_key(g)
            for g in enumerate_connected(n)
            if bipartition_sides(g) is not None
        }
        bip = {canonical_key(g) for g in enumerate_connected_bipartite(n)}
        assert bip == full


def test_bipartite_counts():
    # published: connected bipartite graphs on 4..9 vertices
    expected = {4: 3, 5: 5, 6: 17, 7: 44, 8: 182, 9: 730}
    for n, count in expected.items():
        assert len(enumerate_connected_bipartite(n)) == count


def test_random_bipartite_generator():
    rng = random.Random(3)
    for _ in range(60):
        g = random_connected_bipartite(rng.randrange(2, 40), rng)
        assert g.is_connected()
        assert bipartition_sides(g) is not None


def test_random_bipartite_deterministic_per_seed():
    a = random_connected_bipartite(25, random.Random(7))
    b = random_connected_bipartite(25, random.Random(7))
    assert a == b


def test_bipartite_enumeration_limit(monkeypatch):
    import lirdec.enumeration as enumeration

    # count the growth steps without building them
    steps = []
    monkeypatch.setattr(enumeration, "_one_more_vertex", lambda reps, pools: steps.append(1) or reps)
    with pytest.raises(ValueError, match="n <= 10"):
        enumerate_connected_bipartite(11)
    assert enumerate_connected_bipartite(10) == [SimpleGraph(1, [])] and len(steps) == 9


def test_random_bipartite_graphs_are_fixed_by_their_seed():
    # the bench's and the CLI's randbip inputs are these graphs
    assert to_graph6(random_connected_bipartite(12, random.Random(5))) == "KsUIj@CTCO`I"
    assert random_connected_bipartite(2, random.Random(0)) == path_graph(2)
    with pytest.raises(ValueError, match="need n >= 2"):
        random_connected_bipartite(1, random.Random(0))


def test_catalogs_keep_their_graphs_and_order():
    # the sweep reports graphs in catalog order: the representatives and
    # their order are pinned, not only the counts
    import hashlib

    def digest(graphs):
        return hashlib.sha256("\n".join(map(to_graph6, graphs)).encode()).hexdigest()

    assert [to_graph6(g) for g in enumerate_connected(4)] == ["Cr", "Cq", "Cs", "Cu", "Cv", "C~"]
    assert digest(g for n in range(1, 8) for g in enumerate_connected(n)) == (
        "36654057006c3c64ff4d03215aef0c2b9350999daeb3c986415de855e917a088"
    )
    assert digest(g for n in range(1, 8) for g in enumerate_connected_bipartite(n)) == (
        "493a57e041b28240e01822778cb0fe0358d6f146410059b66cf1a8c6c5393d8e"
    )


@pytest.mark.parametrize("n", [0, -1])
def test_catalogs_start_at_order_one(n):
    with pytest.raises(ValueError, match="need n >= 1"):
        enumerate_connected(n)
    with pytest.raises(ValueError, match="need n >= 1"):
        enumerate_connected_bipartite(n)
