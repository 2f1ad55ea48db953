"""Conjecture sweep harness: records, resumability, determinism."""

import json
import random
from pathlib import Path

import pytest

from lirdec.decomposition import verify
from lirdec.graph_io import decomposition_to_json, to_graph6
from lirdec.enumeration import enumerate_connected, random_connected_bipartite
from lirdec.graphs import (
    SimpleGraph,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    path_graph,
    wheel_graph,
)
from lirdec.harness import (
    RESULT_CANDIDATE,
    RESULT_ERROR,
    RESULT_EXCLUDED,
    RESULT_INCONCLUSIVE,
    RESULT_TWO_COLORS,
    SweepRecord,
    SweepSummary,
    check_graph,
    drop_torn_tail,
    load_report_ids,
    sweep,
)
from lirdec.solver import SearchLimits

from oracle import bowtie_graph, record_from_json


def test_sweep_small_catalog_has_no_candidates():
    records = list(sweep(enumerate_connected(4)))
    assert len(records) == 6
    assert all(r.result == RESULT_TWO_COLORS for r in records)
    for r in records:
        assert r.witness is not None
        assert verify(r.witness).valid


def test_sweep_excludes_k2():
    records = list(sweep([path_graph(2)]))
    assert records[0].result == RESULT_EXCLUDED
    assert "conjecture" in records[0].detail


@pytest.mark.parametrize("g", [SimpleGraph(0, []), SimpleGraph(1, [])], ids=["K0", "K1"])
def test_sweep_records_an_edgeless_graph_and_goes_on(g):
    # there is nothing to double: the record says so and the sweep goes on
    records = list(sweep([g, path_graph(3)]))
    assert [r.result for r in records] == [RESULT_EXCLUDED, RESULT_TWO_COLORS]
    assert "no edges" in records[0].detail
    assert records[0].witness is None


def test_bowtie_two_colorable_via_exact():
    rec = check_graph(bowtie_graph())
    assert rec.result == RESULT_TWO_COLORS
    assert rec.method == "exact"
    assert rec.witness is not None and verify(rec.witness).valid


def test_cross_check_mode_runs_both():
    rec = check_graph(path_graph(5), cross_check=True)
    assert rec.method == "both"
    assert rec.result == RESULT_TWO_COLORS


def test_cross_check_keeps_the_constructive_witness_when_the_search_is_cut():
    rec = check_graph(cycle_graph(5), SearchLimits(node_budget=1), cross_check=True)
    assert (rec.result, rec.method) == (RESULT_TWO_COLORS, "both")
    assert rec.detail == "exact cross-check inconclusive"
    assert verify(rec.witness).valid


def test_cross_check_catalog_invariant():
    # wherever both routes ran, they agreed; a disagreement would raise
    for rec in sweep(enumerate_connected(5), cross_check=True):
        if rec.method == "both":
            assert rec.result == RESULT_TWO_COLORS
            assert "agree" in rec.detail or rec.detail == ""


def test_budget_exhaustion_yields_inconclusive():
    rec = check_graph(bowtie_graph(), SearchLimits(node_budget=3))
    assert rec.result == RESULT_INCONCLUSIVE


def test_record_json_round_trip():
    rec = check_graph(path_graph(5))
    back = record_from_json(rec.to_json())
    assert back.graph_id == rec.graph_id
    assert back.result == rec.result
    assert back.witness == rec.witness


def test_record_json_is_deterministic_modulo_runtime():
    import json

    a = json.loads(check_graph(path_graph(6)).to_json())
    b = json.loads(check_graph(path_graph(6)).to_json())
    a.pop("runtime"), b.pop("runtime")
    assert a == b


def test_resume_skips_recorded_ids(tmp_path):
    report = tmp_path / "report.jsonl"
    first = list(sweep(enumerate_connected(4)))
    with open(report, "w", encoding="utf-8") as fh:
        for rec in first[:3]:
            fh.write(rec.to_json() + "\n")
    skip = load_report_ids(str(report))
    assert len(skip) == 3
    rest = list(sweep(enumerate_connected(4), skip_ids=skip))
    assert len(rest) == 3
    assert {r.graph_id for r in rest} == {r.graph_id for r in first[3:]}


def test_torn_report_tail_is_ignored_and_dropped(tmp_path):
    report = tmp_path / "report.jsonl"
    whole = [rec.to_json() for rec in sweep(enumerate_connected(4))]
    report.write_text("\n".join(whole[:3]) + "\n" + whole[3][:20])
    assert load_report_ids(str(report)) == {json.loads(x)["graph"] for x in whole[:3]}
    drop_torn_tail(str(report))
    assert report.read_text() == "\n".join(whole[:3]) + "\n"
    drop_torn_tail(str(report))  # a report ending in a newline is kept whole
    assert report.read_text() == "\n".join(whole[:3]) + "\n"
    report.write_text(whole[0][:20])
    drop_torn_tail(str(report))
    assert report.read_text() == ""
    drop_torn_tail(str(tmp_path / "missing.jsonl"))
    assert not (tmp_path / "missing.jsonl").exists()


def test_unparseable_line_before_the_last_is_an_error(tmp_path):
    report = tmp_path / "report.jsonl"
    whole = [rec.to_json() for rec in sweep(enumerate_connected(3))]
    report.write_text(whole[0][:20] + "\n" + whole[1] + "\n")
    with pytest.raises(ValueError):
        load_report_ids(str(report))


def test_parallel_sweep_matches_serial():
    graphs = enumerate_connected(5)
    serial = [r.to_json() for r in sweep(graphs)]
    parallel = [r.to_json() for r in sweep(graphs, jobs=2)]

    def strip(rows):
        import json

        out = []
        for row in rows:
            payload = json.loads(row)
            payload.pop("runtime")
            out.append(payload)
        return out

    assert strip(serial) == strip(parallel)


def test_summary_table():
    summary = SweepSummary()
    for rec in sweep(enumerate_connected(4)):
        summary.add(rec)
    assert summary.total == 6
    assert summary.counterexample_candidates == 0
    assert "graphs checked: 6" in summary.table()


def test_disconnected_input_recorded_not_thrown():
    from lirdec.graphs import SimpleGraph

    bad = SimpleGraph(4, [(0, 1), (2, 3)])
    records = list(sweep([bad, path_graph(3)]))
    assert records[0].result == "error"
    assert "connected" in records[0].detail
    assert records[1].result == RESULT_TWO_COLORS


def test_constructive_and_exact_agree_on_small_graphs():
    # wherever a constructive colorer applies, the two-color exact search
    # must succeed as well (and the harness enforces it per record)
    from lirdec.colorers import color_double_auto
    from lirdec.graphs import double
    from lirdec.solver import SearchStatus, exact_lir_multigraph

    for n in range(3, 7):
        for g in enumerate_connected(n):
            witness = color_double_auto(g)
            if witness is not None:
                assert verify(witness).valid
                res = exact_lir_multigraph(
                    double(g), SearchLimits(max_colors=2)
                )
                assert res.status is SearchStatus.FOUND, g.edges


def test_conjecture_holds_through_eight_vertices():
    # the full built-in catalog: 11117 connected graphs on 8 vertices
    # (the doubled complete graph needs the edge cap raised to 28)
    graphs = enumerate_connected(8)
    assert len(graphs) == 11117
    candidates = 0
    for rec in sweep(graphs, SearchLimits(max_edges=28), jobs=2):
        if rec.result != RESULT_TWO_COLORS:
            candidates += 1
    assert candidates == 0


def _k8_minus_path():
    # K8 without the edges 0-1 and 1-2: 26 edges, no colorer covers it
    edges = [e for e in complete_graph(8).edges if e not in ((0, 1), (1, 2))]
    return SimpleGraph(8, edges)


def test_edge_cap_yields_inconclusive_record():
    g = _k8_minus_path()
    assert g.m == 26
    rec = check_graph(g)  # default max_edges=24
    assert rec.result == RESULT_INCONCLUSIVE
    assert rec.method == "exact"
    assert rec.witness is None
    assert "edge cap 26 > max_edges 24" in rec.detail


def test_edge_cap_keeps_constructive_witness_under_cross_check():
    rec = check_graph(complete_graph(8), cross_check=True)  # 28 edges
    assert rec.result == RESULT_TWO_COLORS
    assert rec.method == "both"
    assert "edge cap" in rec.detail
    assert verify(rec.witness).valid


def _golden_cases():
    return {
        "path": (path_graph(5), None),
        "cycle": (cycle_graph(6), None),
        "wheel": (wheel_graph(6), None),
        "complete": (complete_graph(5), None),
        "multipartite": (complete_multipartite_graph([2, 2, 3]), None),
        "bipartite": (SimpleGraph(6, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5)]), None),
        "bowtie": (bowtie_graph(), None),
        "k2": (path_graph(2), None),
        "budget": (bowtie_graph(), SearchLimits(node_budget=3)),
    }


def test_record_json_matches_golden_bytes():
    # captured before the record path was rewritten, the multipartite line
    # re-pinned when its part matrix became one closed form; runtime zeroed
    golden = {}
    for line in (Path(__file__).parent / "data" / "sweep_records.golden").read_text().splitlines():
        name, text = line.split(" ", 1)
        golden[name] = text
    cases = _golden_cases()
    assert set(golden) == set(cases)
    for name, (g, lim) in cases.items():
        rec = check_graph(g, lim)._replace(runtime=0.0)
        assert rec.to_json() == golden[name], name


def _count_calls(monkeypatch, module, name):
    """Count calls to module.name through every lirdec binding of it."""
    import sys

    original = getattr(sys.modules[module], name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key.startswith("lirdec.") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_check_graph_classifies_once_and_verifies_at_most_once(monkeypatch):
    from lirdec.classify import ClassKind, classify

    graphs = [g for g, _ in _golden_cases().values() if g.m > 1]
    graphs += [_k8_minus_path()]
    graphs += [g for n in range(3, 7) for g in enumerate_connected(n)]
    # constructive records of every colorer, each multipartite scan tier included
    rng = random.Random(8)
    graphs += [path_graph(12), cycle_graph(11), wheel_graph(10), complete_graph(7)]
    graphs += [
        complete_multipartite_graph(s)
        for s in ([3, 4], [3, 3], [1, 1, 2, 2], [1, 1, 1, 2], [1, 1, 1, 1, 1, 3], [2, 3, 4, 5])
    ]
    graphs += [random_connected_bipartite(rng.randrange(5, 40), rng) for _ in range(40)]
    kinds = [classify(g).kind for g in graphs]
    classify_calls = _count_calls(monkeypatch, "lirdec.classify", "classify")
    verify_calls = _count_calls(monkeypatch, "lirdec.decomposition", "verify")
    methods = set()
    for g in graphs:
        classify_calls[0] = verify_calls[0] = 0
        rec = check_graph(g)
        methods.add(rec.method)
        assert classify_calls[0] == 1, g.edges
        assert verify_calls[0] == (rec.witness is not None), g.edges
    assert methods == {"constructive", "exact"}
    assert ClassKind.COMPLETE_MULTIPARTITE in kinds and ClassKind.OTHER in kinds


def test_resumed_sweep_writes_each_graph_id_once(monkeypatch):
    # the skip test and the record share one to_graph6 call per graph
    graphs = enumerate_connected(5)
    first = list(sweep(graphs))
    calls = _count_calls(monkeypatch, "lirdec.graph_io", "to_graph6")
    rest = list(sweep(graphs, skip_ids={first[0].graph_id}))
    assert [r.graph_id for r in rest] == [r.graph_id for r in first[1:]]
    assert calls[0] == len(graphs)


def test_cli_import_leaves_multiprocessing_out():
    # the process pool is imported only when a sweep runs with jobs > 1
    import os
    import subprocess
    import sys

    import lirdec

    src = str(Path(lirdec.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, lirdec.cli; print('multiprocessing' in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def record_json_reference(r: SweepRecord) -> str:
    """The record through json.dumps, with sorted keys and compact separators."""
    payload = {
        "graph": r.graph_id,
        "n": r.n,
        "m": r.m,
        "class": r.class_tag,
        "method": r.method,
        "result": r.result,
        "runtime": round(r.runtime, 6),
        "detail": r.detail,
        "witness": None if r.witness is None else json.loads(decomposition_to_json(r.witness)),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def test_record_json_matches_json_dumps():
    # a graph6 id may hold a backslash (as 210 of the connected graphs on
    # eight vertices do), and a detail quotes and non-ASCII text
    colored = check_graph(path_graph(5))
    assert colored.result == RESULT_TWO_COLORS and colored.witness is not None
    records = [
        SweepRecord("Gw\\xe[", 8, 13, "other", "exact", RESULT_TWO_COLORS, colored.witness),
        SweepRecord("A_", 2, 1, "path", "none", RESULT_EXCLUDED, detail="excluded by conjecture statement"),
        SweepRecord("B\\", 3, 2, "?", "none", RESULT_ERROR, detail='bad "input" \u00e9 \u2013 \\ done'),
        SweepRecord("Gw\\xe[", 8, 13, "other", "exact", RESULT_INCONCLUSIVE, detail="node budget exhausted"),
        SweepRecord("Gw\\xe[", 8, 13, "t-family", "exact", RESULT_CANDIDATE, detail="completed exact search found no two-coloring"),
        colored,
    ]
    for record in records:
        for runtime in (0.0, 1e-06, 12.5, 0.123456789):
            record = record._replace(runtime=runtime)
            assert record.to_json() == record_json_reference(record)


def test_graph_ids_are_graph6_up_to_62_vertices():
    assert check_graph(cycle_graph(62)).graph_id == to_graph6(cycle_graph(62))
    rec = check_graph(path_graph(63))
    assert (rec.graph_id, rec.result) == ("n63m62", RESULT_TWO_COLORS)
    # a skipped id is looked up for graphs of at most 62 vertices only
    rest = list(sweep([path_graph(63), cycle_graph(62)], skip_ids={"n63m62", to_graph6(cycle_graph(62))}))
    assert [r.graph_id for r in rest] == ["n63m62"]


def test_only_k0_k1_and_k2_are_excluded():
    # an edge and an isolated vertex: three vertices, one edge, no exclusion
    rec = check_graph(SimpleGraph(3, [(0, 1)]))
    assert (rec.result, rec.class_tag, rec.method) == (RESULT_ERROR, "?", "none")


def test_an_invalid_constructive_witness_is_an_internal_error(monkeypatch):
    import lirdec.harness as harness
    from lirdec.decomposition import Decomposition
    from lirdec.graphs import double

    g = cycle_graph(4)  # all red: every vertex has red degree 4
    monkeypatch.setattr(harness, "color_double_auto", lambda g, tag: Decomposition(double(g), 2, [(2, 0)] * g.m))
    with pytest.raises(AssertionError, match="constructive witness failed verification: Cl"):
        check_graph(g)


def test_an_exact_none_beside_a_constructive_witness_is_an_internal_error(monkeypatch):
    import lirdec.harness as harness
    from lirdec.solver import SearchStatus, SolveResult

    monkeypatch.setattr(harness, "exact_lir_multigraph", lambda m, lim: SolveResult(SearchStatus.NONE, None, None, 1))
    with pytest.raises(AssertionError, match="constructive witness exists but exact search found none: Bg"):
        check_graph(path_graph(3), cross_check=True)
    rec = check_graph(bowtie_graph())
    assert (rec.result, rec.method, rec.witness) == (RESULT_CANDIDATE, "exact", None)
    assert rec.detail == "completed exact search found no two-coloring"


def test_the_exact_route_asks_for_two_colors_within_the_callers_limits(monkeypatch):
    import lirdec.harness as harness

    asked = []
    real = harness.exact_lir_multigraph
    monkeypatch.setattr(harness, "exact_lir_multigraph", lambda m, lim: asked.append(lim) or real(m, lim))
    g = bowtie_graph()  # 13 edges, covered by no colorer
    rec = check_graph(g, SearchLimits(max_colors=5, max_edges=13, node_budget=999))
    assert rec.result == RESULT_TWO_COLORS and asked == [SearchLimits(2, 13, 999)]
    # one edge more than the cap skips the search
    rec = check_graph(g, SearchLimits(max_edges=12))
    assert (rec.result, rec.detail) == (RESULT_INCONCLUSIVE, "exact search skipped: edge cap 13 > max_edges 12")
    assert len(asked) == 1


def test_two_isolated_vertices_are_an_error_not_an_exclusion():
    rec = check_graph(SimpleGraph(2, []))
    assert (rec.result, rec.class_tag) == (RESULT_ERROR, "?")


def test_record_runtime_is_written_to_the_microsecond():
    rec = SweepRecord("A_", 2, 1, "path", "none", RESULT_EXCLUDED, runtime=0.12345678)
    assert '"runtime":0.123457,' in rec.to_json()


def test_a_parallel_sweep_keeps_two_chunks_of_eight_in_flight_per_job(monkeypatch):
    import multiprocessing

    log = []

    class InlinePool:
        def __init__(self, processes):
            log.append(("pool", processes))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def apply_async(self, fn, args):
            log.append(("submit", len(args[0])))
            records = fn(*args)

            class Result:
                def get(self):
                    log.append(("get", len(records)))
                    return records

            return Result()

    monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
    graphs = enumerate_connected(5)  # 21 graphs: chunks of 8, 8 and 5
    got = [r.graph_id for r in sweep(graphs)]
    assert [r.graph_id for r in sweep(graphs, jobs=1)] == got
    assert log == []
    assert [r.graph_id for r in sweep(graphs, jobs=2)] == got
    assert log == [("pool", 2), ("submit", 8), ("submit", 8), ("submit", 5), ("get", 8), ("get", 8), ("get", 5)]
    log.clear()
    # 105 graphs: 13 chunks of 8, then 1; one more is sent as each comes back
    assert [r.graph_id for r in sweep(graphs * 5, jobs=2)] == got * 5
    assert log == (
        [("pool", 2)] + [("submit", 8)] * 4 + [("get", 8), ("submit", 8)] * 9
        + [("get", 8), ("submit", 1)] + [("get", 8)] * 3 + [("get", 1)]
    )


def test_drop_torn_tail_reads_the_report_back_from_its_end_in_64_kib_blocks(tmp_path, monkeypatch):
    import builtins

    import lirdec.harness as harness

    reads = []

    class Watched:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def read(self, size):
            reads.append(size)
            return self.fh.read(size)

        def __getattr__(self, name):
            return getattr(self.fh, name)

    monkeypatch.setattr(harness, "open", lambda *a: Watched(builtins.open(*a)), raising=False)
    report = tmp_path / "report.jsonl"
    # the last newline lies 100,000 bytes before the end of 200,001 bytes
    report.write_bytes(b"x" * 100_000 + b"\n" + b"y" * 100_000)
    drop_torn_tail(str(report))
    assert reads == [65536, 65536] and report.read_bytes() == b"x" * 100_000 + b"\n"


def test_cross_check_details():
    rec = check_graph(cycle_graph(5), cross_check=True)
    assert (rec.method, rec.detail) == ("both", "constructive and exact agree")
    # with no colorer, cross-checking changes nothing: the exact witness is kept
    plain, crossed = check_graph(bowtie_graph()), check_graph(bowtie_graph(), cross_check=True)
    assert (crossed.method, crossed.detail) == ("exact", "")
    assert crossed.witness == plain.witness and verify(crossed.witness).valid


def test_a_sweep_is_serial_unless_asked_for_jobs():
    import inspect

    assert inspect.signature(sweep).parameters["jobs"].default == 1


def test_report_ids_skip_blank_lines_and_name_a_torn_line_before_the_last(tmp_path):
    report = tmp_path / "report.jsonl"
    whole = [rec.to_json() for rec in sweep(enumerate_connected(3))]
    report.write_text(f"\n{whole[0]}\n\n  \n{whole[1]}\n\n")
    assert load_report_ids(str(report)) == {json.loads(x)["graph"] for x in whole[:2]}
    fragment = whole[0][:20]
    try:
        json.loads(fragment)
    except json.JSONDecodeError as exc:
        reason = str(exc)
    report.write_text(f"\n{fragment}\n\n{whole[1]}\n")
    with pytest.raises(ValueError) as got:
        load_report_ids(str(report))
    assert str(got.value) == f"{report}: line 2: {reason}"


def test_summary_counts_each_result_and_method():
    summary = SweepSummary()
    for rec in sweep(enumerate_connected(4)):
        summary.add(rec)
    summary.add(SweepRecord("X", 5, 6, "other", "exact", RESULT_CANDIDATE))
    summary.add(SweepRecord("Y", 5, 6, "other", "exact", RESULT_CANDIDATE))
    assert summary.counterexample_candidates == 2
    assert summary.table() == (
        "graphs checked: 8\n"
        "  result counterexample-candidate   2\n"
        "  result lir<=2                     6\n"
        "  method constructive               5\n"
        "  method exact                      3"
    )


def test_drop_torn_tail_reads_down_to_the_first_byte(tmp_path):
    # 65,537 bytes: the second block is the first byte alone, the only newline
    report = tmp_path / "report.jsonl"
    report.write_bytes(b"\n" + b"y" * 65_536)
    drop_torn_tail(str(report))
    assert report.read_bytes() == b"\n"
