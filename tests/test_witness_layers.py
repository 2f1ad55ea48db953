"""The witness layers against their original per-edge loops: the same maps,
the same reports and the same ValueError messages, and byte-identical sweep
records on the largest constructive witnesses."""

import hashlib
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from lirdec.decomposition import Decomposition, verify
from lirdec.enumeration import random_connected_bipartite
from lirdec.graph_io import decomposition_to_json
from lirdec.graphs import (
    Multigraph,
    SimpleGraph,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    double,
    path_graph,
    wheel_graph,
)
from lirdec.harness import RESULT_TWO_COLORS, sweep

from oracle import (
    assignment_reference,
    multiplicities_reference,
    size_vectors,
    vectors_summing_to,
    verify_reference,
)
from test_decomposition import small_decompositions
from test_symmetry import small_multigraphs

SETTINGS = settings(derandomize=True, max_examples=400, deadline=None, database=None)


def outcome(build):
    """("ok", value) or ("ValueError", message)."""
    try:
        return "ok", build()
    except ValueError as exc:
        return "ValueError", str(exc)


@st.composite
def small_graphs(draw) -> SimpleGraph:
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    return SimpleGraph(n, edges)


def strays(g: SimpleGraph) -> list[tuple[int, int]]:
    """Keys that are not edges of g: reversed edges, non-adjacent pairs and
    a pair past the last vertex."""
    others = [
        (u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)
    ]
    return [(v, u) for u, v in g.edges] + others + [(0, g.n)]


@st.composite
def multiplicity_maps(draw):
    """A graph and a multiplicity map: a subset of its edges in any order,
    perhaps with a non-edge key or a multiplicity below 1."""
    g = draw(small_graphs())
    keys = draw(st.permutations(g.edges))[: draw(st.integers(0, g.m))]
    mult = {e: draw(st.integers(1, 3)) for e in keys}
    case = draw(st.sampled_from(["valid", "non-edge key", "below one", "both"]))
    if case in ("non-edge key", "both"):
        mult[draw(st.sampled_from(strays(g)))] = draw(st.integers(1, 3))
    if case in ("below one", "both") and keys:
        mult[draw(st.sampled_from(keys))] = draw(st.integers(-2, 0))
    order = draw(st.permutations(list(mult)))
    return g, {e: mult[e] for e in order}


@SETTINGS
@given(multiplicity_maps())
def test_multigraph_matches_the_reference(case):
    g, mult = case
    want = outcome(lambda: list(multiplicities_reference(g, mult).items()))
    assert outcome(lambda: list(Multigraph(g, mult).mult.items())) == want


@SETTINGS
@given(small_graphs())
def test_double_matches_the_reference(g):
    if g.m:
        want = multiplicities_reference(g, {e: 2 for e in g.edges})
        assert list(double(g).mult.items()) == list(want.items())


MALFORMED = (
    "valid",
    "missing edge",
    "non-edge key",
    "vector length",
    "negative count",
    "wrong sum",
    "count lists",
    "tuple subclass",
    "two faults",
    "no colors",
)


class Counts(tuple):
    """A count vector that is a tuple, but not exactly one."""


def _spoil(draw, host, k, assign, case):
    """Apply one malformation to a valid assignment at a drawn edge."""
    edges = list(host.edges)
    if case == "non-edge key":
        assign[draw(st.sampled_from(strays(host.base)))] = (2,) + (0,) * (k - 1)
        return
    if case in ("count lists", "tuple subclass"):
        # both are stored as plain tuples
        kind = list if case == "count lists" else Counts
        for e in draw(st.lists(st.sampled_from(edges), unique=True)) if edges else []:
            assign[e] = kind(assign[e])
        return
    if not edges:
        return
    e = draw(st.sampled_from(edges))
    mu = host.mult[e]
    if case == "missing edge" or e not in assign:  # a second fault may find it gone
        assign.pop(e, None)
    elif case == "vector length":
        assign[e] = assign[e] + (0,) if k == 1 or draw(st.booleans()) else assign[e][1:]
    elif case == "negative count":
        assign[e] = (mu + 1, -1) + (0,) * (k - 2) if k >= 2 else (-1,)
    elif case == "wrong sum":
        assign[e] = (assign[e][0] + draw(st.sampled_from([-1, 1])),) + assign[e][1:]


# hosts of more edges than the exact search's witnesses have
LARGE = 33


@st.composite
def larger_multigraphs(draw) -> Multigraph:
    """Hosts of LARGE to LARGE + 8 edges."""
    n = draw(st.integers(9, 11))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    size = LARGE
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=size, max_size=size + 8))
    g = SimpleGraph(n, edges)
    return Multigraph(g, {e: draw(st.integers(1, 3)) for e in g.edges})


@st.composite
def assignments(draw):
    """A host, a color count and an assignment, valid or with one of the
    MALFORMED faults (two for "two faults"), keys in any order."""
    host = draw(st.one_of(small_multigraphs(), larger_multigraphs()))
    k = draw(st.integers(1, 3))
    assign = {e: draw(st.sampled_from(vectors_summing_to(mu, k))) for e, mu in host.mult.items()}
    case = draw(st.sampled_from(MALFORMED))
    if case == "two faults":
        for fault in draw(st.lists(st.sampled_from(MALFORMED[1:8]), min_size=2, max_size=2)):
            _spoil(draw, host, k, assign, fault)
    elif case == "no colors":
        k = 0
    else:
        _spoil(draw, host, k, assign, case)
    if draw(st.booleans()):  # the host's multiplicities out of edge order
        for e in draw(st.permutations(host.edges)):
            host.mult[e] = host.mult.pop(e)
    order = draw(st.permutations(list(assign)))
    return host, k, {e: assign[e] for e in order}


@SETTINGS
@given(assignments())
def test_decomposition_matches_the_reference(case):
    host, k, assign = case
    want = outcome(lambda: list(assignment_reference(host, k, assign).items()))
    got = outcome(lambda: list(Decomposition(host, k, assign).assign.items()))
    assert got == want
    if got[0] == "ok":
        assert all(type(counts) is tuple for _, counts in got[1])
        assert Decomposition(host, k, assign).vectors == tuple(counts for _, counts in got[1])


@SETTINGS
@given(assignments(), st.sampled_from([list, tuple]))
def test_a_sequence_in_edge_order_matches_the_mapping(case, kind):
    # the producers' route: the same vectors, or the same first bad edge
    host, k, assign = case
    if assign.keys() - set(host.edges):
        return  # a non-edge key has no place in a sequence
    sequence = kind(map(assign.get, host.edges))
    want = outcome(lambda: Decomposition(host, k, assign))
    assert outcome(lambda: Decomposition(host, k, sequence)) == want


def test_each_sum_is_checked_against_its_own_edge():
    # a multiplicity map out of edge order, and sums that follow the map's
    # order: every edge's sum is wrong for that edge
    g = complete_graph(9)
    assert g.m >= LARGE
    host = Multigraph(g, {e: 1 + i % 2 for i, e in enumerate(g.edges)})
    host.mult[g.edges[0]] = host.mult.pop(g.edges[0])
    assign = {e: (mu, 0) for e, mu in zip(g.edges, host.mult.values())}
    want = outcome(lambda: assignment_reference(host, 2, assign))
    assert want == ("ValueError", "edge (0, 1): counts sum 2 != multiplicity 1")
    assert outcome(lambda: Decomposition(host, 2, assign).assign) == want
    assert outcome(lambda: Decomposition(host, 2, list(assign.values())).assign) == want


@SETTINGS
@given(small_decompositions(), st.data())
def test_verify_matches_the_reference_after_mutation(d, data):
    # corrupt up to two vectors past the first one behind the constructor
    vectors = list(d.vectors)
    if len(vectors) >= 2:
        for i in data.draw(st.lists(st.integers(1, len(vectors) - 1), max_size=2)):
            counts = tuple(vectors[i])
            kind = data.draw(st.sampled_from(["wrong sum", "list", "other valid"]))
            if kind == "wrong sum":
                vectors[i] = (counts[0] + 1,) + counts[1:]
            elif kind == "list":
                vectors[i] = list(counts)
            else:
                mu = d.host.mult[d.host.edges[i]]
                vectors[i] = data.draw(st.sampled_from(vectors_summing_to(mu, d.k)))
    d.vectors = tuple(vectors)
    assert outcome(lambda: verify(d).conflicts) == outcome(lambda: verify_reference(d))


@SETTINGS
@given(small_decompositions(), st.data())
def test_json_keeps_edge_order_when_entries_move(d, data):
    # a mapping in any insertion order gives the same vectors and bytes
    payload = {
        "n": d.host.n,
        "k": d.k,
        "edges": [{"u": u, "v": v, "counts": list(c)} for (u, v), c in zip(d.host.edges, d.vectors)],
    }
    order = data.draw(st.permutations(d.host.edges))
    moved = Decomposition(d.host, d.k, {e: d.assign[e] for e in order})
    assert moved.vectors == d.vectors
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert decomposition_to_json(moved) == decomposition_to_json(d) == text


# --- byte-identical large records ---------------------------------------------

# sha256 of the records below, runtime zeroed, as written before the witness
# layers became one pass each
LARGE_RECORDS_SHA256 = "bb9e2ecbb79c61629b8a921791e2ae1f398554719ec224030a4416cbf85f456d"


def relabelled(g: SimpleGraph, rng: random.Random) -> SimpleGraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return SimpleGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def large_graphs() -> list[SimpleGraph]:
    """K40, P395, C395, W188, every complete multipartite graph with at most
    six parts and 18 vertices, and a random connected bipartite graph on
    each order 3..59, each under a seeded relabelling."""
    rng = random.Random(2208)
    graphs = [complete_graph(40), path_graph(395), cycle_graph(395), wheel_graph(188)]
    graphs += [complete_multipartite_graph(s) for s in size_vectors(6, 18) if s != [1, 1]]
    graphs += [random_connected_bipartite(n, rng) for n in range(3, 60)]
    return [relabelled(g, rng) for g in graphs]


def test_large_records_are_byte_identical():
    digest = hashlib.sha256()
    records = 0
    for record in sweep(large_graphs()):
        assert record.result == RESULT_TWO_COLORS and record.method == "constructive"
        record.runtime = 0.0
        digest.update(record.to_json().encode() + b"\n")
        records += 1
    assert records == 4 + 976 + 57
    assert digest.hexdigest() == LARGE_RECORDS_SHA256
