"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Every tolerance here is exact (witnesses either verify or they do
not); there are no numeric fudge factors.
"""

import itertools
import random
import time

from lirdec.bipartite import color_double_bipartite, path_system
from lirdec.classify import recognize_t_prime
from lirdec.colorers import cycle_states
from lirdec.decomposition import BB, RB, RR, Decomposition, verify
from lirdec.enumeration import (
    enumerate_connected,
    enumerate_connected_bipartite,
    random_connected_bipartite,
)
from lirdec.graphs import cycle_graph, double, path_graph
from lirdec.harness import RESULT_TWO_COLORS, sweep
from lirdec.solver import (
    SearchLimits,
    SearchStatus,
    exact_lir_graph,
    exact_lir_multigraph,
    is_decomposable,
)

from oracle import (
    bowtie_graph,
    color_double_complete,
    color_double_cycle,
    color_double_multipartite,
    color_double_path,
    color_double_wheel,
    color_t_family_3,
    colors_used,
    degree_parity,
    parity_profile,
    random_connected_graph,
    t_family_members,
)


def report(criterion, started, message):
    print(f"PASS criterion {criterion} ({time.time() - started:.1f}s): {message}")


def test_criterion_1_triangle_witness_and_k2_rejection():
    t0 = time.time()
    host = double(cycle_graph(3))
    witness = Decomposition(host, 2, {(0, 1): RR, (1, 2): RB, (0, 2): BB})
    assert verify(witness).valid
    res = exact_lir_multigraph(double(path_graph(2)), SearchLimits(max_colors=4))
    assert res.status is SearchStatus.NONE
    report(1, t0, "doubled-triangle witness valid; doubled K2 rejected for k<=4")


def test_criterion_2_conjecture_sweep_through_six_vertices():
    t0 = time.time()
    total = 0
    for n in range(3, 7):
        for record in sweep(enumerate_connected(n)):
            assert record.result == RESULT_TWO_COLORS, (
                record.graph_id,
                record.result,
            )
            assert record.method in ("constructive", "exact")
            assert record.witness is not None
            assert verify(record.witness).valid
            total += 1
    assert total == 2 + 6 + 21 + 112
    report(2, t0, f"{total} graphs on 3..6 vertices, zero counterexample candidates")


def test_criterion_3_bipartite_theorem_at_scale():
    t0 = time.time()
    exhaustive = 0
    for n in range(3, 10):
        for g in enumerate_connected_bipartite(n):
            assert verify(color_double_bipartite(g)).valid, g.edges
            exhaustive += 1
    rng = random.Random(20260808)
    for _ in range(500):
        g = random_connected_bipartite(rng.randrange(3, 61), rng)
        assert verify(color_double_bipartite(g)).valid, g.edges
    report(3, t0, f"{exhaustive} exhaustive bipartite graphs (n<=9) + 500 random (n<=60)")


def test_criterion_4_class_colorers():
    t0 = time.time()
    for n in range(3, 41):
        assert verify(color_double_path(n)).valid
    for length in range(3, 41):
        assert verify(color_double_cycle(length)).valid
    for length in range(8, 41):
        states = cycle_states(length)
        assert states[0] == RR and states[1] == RR  # splice anchor preserved
        assert verify(color_double_cycle(length)).valid
    for n in range(4, 21):
        assert verify(color_double_wheel(n)).valid
    for n in range(3, 13):
        assert verify(color_double_complete(n)).valid
    vectors = 0
    for total in range(3, 11):
        for k in range(2, total + 1):
            for sizes in itertools.combinations_with_replacement(range(1, total), k):
                if sum(sizes) == total:
                    assert verify(color_double_multipartite(list(sizes))).valid
                    vectors += 1
    report(4, t0, f"paths/cycles<=40, wheels<=20, complete<=12, {vectors} k-partite vectors")


def test_criterion_5_bowtie_ground_truth():
    t0 = time.time()
    b = bowtie_graph()
    three = exact_lir_graph(b, SearchLimits(max_colors=3))
    assert three.status is SearchStatus.NONE  # completed search, no witness
    four = exact_lir_graph(b, SearchLimits(max_colors=4))
    assert four.status is SearchStatus.FOUND and four.colors == 4
    assert verify(four.witness).valid
    doubled = exact_lir_multigraph(double(b), SearchLimits(max_colors=2))
    assert doubled.status is SearchStatus.FOUND and doubled.colors == 2
    report(5, t0, "lir(B) = 4 exactly; lir of doubled B = 2")


def test_criterion_6_family_non_decomposability():
    t0 = time.time()
    named = {
        "K3": cycle_graph(3),
        "C5": cycle_graph(5),
        "C7": cycle_graph(7),
        "P2": path_graph(2),
        "P4": path_graph(4),
    }
    for label, g in named.items():
        res = is_decomposable(g)
        assert res.status is SearchStatus.NONE, label
    members = [g for g, _ in t_family_members(9, limit=8) if g.n > 3][:3]
    assert len(members) == 3
    for g in members:
        res = is_decomposable(g)
        assert res.status is SearchStatus.NONE, g.edges
    agreement = 0
    for n in range(2, 8):
        for g in enumerate_connected(n):
            res = is_decomposable(g)
            assert res.status in (SearchStatus.FOUND, SearchStatus.NONE)
            assert recognize_t_prime(g).member == (
                res.status is SearchStatus.NONE
            ), g.edges
            agreement += 1
    report(6, t0, f"named family members non-decomposable; solver agreement on {agreement} graphs (n<=7)")


def test_criterion_7_three_coloring_of_the_triangle_family():
    t0 = time.time()
    members = t_family_members(12)
    assert len(members) >= 10
    for g, witness in members:
        d = color_t_family_3(g, witness)
        assert verify(d).valid
        assert colors_used(d) <= 3
        two = exact_lir_multigraph(double(g), SearchLimits(max_colors=2))
        assert two.status is SearchStatus.FOUND and two.colors == 2
    report(7, t0, f"{len(members)} members: 3-color construction valid, solver confirms k=2")


def test_criterion_8_parity_property():
    t0 = time.time()
    rng = random.Random(1312)
    for _ in range(1000):
        n = rng.randrange(2, 15)
        g = random_connected_graph(n, rng.randrange(0, n), rng)
        pool = list(range(n))
        rng.shuffle(pool)
        terminals = set(pool[: 2 * rng.randrange(0, n // 2 + 1)])
        join = path_system(g, terminals)
        parities = degree_parity(n, join)
        assert all(
            parities[v] == (1 if v in terminals else 0) for v in range(n)
        )
        d = Decomposition(
            double(g), 2, {e: RB if e in join else BB for e in g.edges}
        )
        prof = parity_profile(d)
        for v in range(n):
            assert prof[v] == ((1, 1) if v in terminals else (0, 0))
    report(8, t0, "1000 random instances: terminals odd/odd, others even/even")
