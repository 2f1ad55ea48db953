"""Command line behavior: subcommands, formats, exit codes."""

import json

import pytest

from lirdec.cli import EXIT_INCONCLUSIVE, EXIT_INVALID, EXIT_OK, EXIT_USAGE, main
from lirdec.graph_io import decomposition_from_json, to_graph6
from lirdec.decomposition import verify
from lirdec.graphs import cycle_graph, double

from oracle import bowtie_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_color_cycle3_json(capsys):
    code, out, _ = run(capsys, "color", "cycle:3", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    counts = {(e["u"], e["v"]): tuple(e["counts"]) for e in payload["edges"]}
    assert sorted(counts.values()) == [(0, 2), (1, 1), (2, 0)]


def test_color_verify_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "color", "wheel:6")
    assert code == EXIT_OK
    witness = tmp_path / "w.json"
    witness.write_text(out)
    code2, out2, _ = run(capsys, "verify", str(witness))
    assert code2 == EXIT_OK and "valid" in out2
    # byte-stability across runs
    code3, out3, _ = run(capsys, "color", "wheel:6")
    assert out3 == out


@pytest.mark.parametrize(
    "payload",
    [
        "[]",
        "null",
        '{"n":2,"k":1,"edges":5}',
        '{"n":"a","k":1,"edges":[]}',
        '{"n":2,"k":2,"edges":[{"u":0,"v":1,"counts":[1,"x"]}]}',
        '{"n":2,"k":1,"edges":[{"u":0,"v":1,"counts":[1]},3]}',
        '{"n":2,"k":1.5,"edges":[]}',
        # a second record of an edge would silently replace the first
        '{"n":3,"k":2,"edges":[{"u":0,"v":1,"counts":[2,0]},{"u":1,"v":2,"counts":[0,2]},'
        '{"u":1,"v":0,"counts":[0,1]}]}',
    ],
)
def test_verify_rejects_json_of_the_wrong_shape(capsys, tmp_path, payload):
    with pytest.raises(ValueError):
        decomposition_from_json(payload)
    witness = tmp_path / "w.json"
    witness.write_text(payload)
    code, out, err = run(capsys, "verify", str(witness))
    assert code == EXIT_USAGE
    assert "bad decomposition JSON" in err and not out


def test_verify_tampered_witness(capsys, tmp_path):
    code, out, _ = run(capsys, "color", "cycle:3")
    payload = json.loads(out)
    for rec in payload["edges"]:
        if tuple(rec["counts"]) == (1, 1):
            rec["counts"] = [2, 0]  # flip the red-blue multiedge to all red
    tampered = tmp_path / "bad.json"
    tampered.write_text(json.dumps(payload))
    code2, out2, _ = run(capsys, "verify", str(tampered))
    assert code2 == EXIT_INVALID
    assert "conflict" in out2


def test_color_k2_is_excluded(capsys):
    code, _, err = run(capsys, "color", "path:2")
    assert code == EXIT_INVALID
    assert "excluded by the conjecture" in err


def test_color_dot_output(capsys):
    code, out, _ = run(capsys, "color", "path:3", "--format", "dot")
    assert code == EXIT_OK
    assert out.startswith("graph ") and 'color="blue"' in out


def test_color_summary_output(capsys):
    code, out, _ = run(capsys, "color", "path:5", "--format", "summary")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "n=5 k=2"
    assert out.splitlines()[1] == "0 1 0 2"  # first doubled edge all blue


def test_color_bipartite_flag(capsys):
    code, out, _ = run(capsys, "color", "cycle:6", "--bipartite")
    assert code == EXIT_OK
    assert verify(decomposition_from_json(out)).valid


def test_color_falls_back_to_the_exact_search(capsys):
    # the paw (class other) is covered by no colorer
    code, out, _ = run(capsys, "color", "Cx")
    assert code == EXIT_OK
    assert verify(decomposition_from_json(out)).valid


def test_color_fallback_inconclusive_exit_code(capsys):
    code, out, err = run(capsys, "color", "Cx", "--node-budget", "1")
    assert code == EXIT_INCONCLUSIVE
    assert out == "" and "search inconclusive: node budget exhausted" in err


def test_color_fallback_none_exit_code(capsys):
    code, out, err = run(capsys, "color", "Cx", "--max-colors", "1")
    assert code == EXIT_INVALID
    assert out == "" and "no coloring within the color limit" in err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["cycle:5"], id="colorer"),
        pytest.param(["cycle:5", "--exact"], id="exact"),
        pytest.param(["Cx"], id="fallback"),
    ],
)
def test_color_verifies_its_witness_once(capsys, monkeypatch, argv):
    # the solver verifies an exact witness; the command verifies a colorer's
    from test_harness import _count_calls

    calls = _count_calls(monkeypatch, "lirdec.decomposition", "verify")
    code, out, _ = run(capsys, "color", *argv)
    assert code == EXIT_OK and verify(decomposition_from_json(out)).valid
    assert calls[0] == 1


def test_color_exact_flag(capsys):
    code, out, _ = run(capsys, "color", "cycle:5", "--exact", "--format", "summary")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "n=5 k=2"


def test_exact_bowtie_graph_mode(capsys, tmp_path):
    g6 = tmp_path / "bowtie.g6"
    g6.write_text(to_graph6(bowtie_graph()) + "\n")
    code, out, _ = run(capsys, "exact", str(g6), "--graph-mode")
    assert code == EXIT_OK
    assert out.startswith("k=4")


def test_exact_none_exit_code(capsys):
    code, out, _ = run(capsys, "exact", "path:2")
    assert code == EXIT_INVALID
    assert out == "none (no coloring with k<=4)\n"
    assert run(capsys, "exact", "path:2", "--max-colors", "3") == (EXIT_INVALID, "none (no coloring with k<=3)\n", "")


def test_exact_inconclusive_exit_code(capsys):
    code, out, _ = run(capsys, "exact", "wheel:9", "--node-budget", "4")
    assert code == EXIT_INCONCLUSIVE
    assert out.startswith("inconclusive")


def test_exact_env_default_limits(capsys, monkeypatch):
    monkeypatch.setenv("LIRDEC_NODE_BUDGET", "4")
    code, out, _ = run(capsys, "exact", "wheel:9")
    assert code == EXIT_INCONCLUSIVE


def test_classify_output(capsys):
    code, out, _ = run(capsys, "classify", "cycle:5")
    assert code == EXIT_OK
    assert "class=cycle" in out
    assert "non-decomposable-family=odd-cycle" in out


def test_classify_kpartite(capsys):
    code, out, _ = run(capsys, "classify", "kpartite:2,2,3")
    assert code == EXIT_OK
    assert "class=complete-multipartite" in out and "parts=[2, 2, 3]" in out


def test_inline_graph6_input(capsys):
    code, out, _ = run(capsys, "classify", to_graph6(cycle_graph(4)))
    assert code == EXIT_OK and "class=cycle" in out


def test_bad_graph6_file_reports_line(capsys, tmp_path):
    bad = tmp_path / "bad.g6"
    bad.write_text("Bw\nB\n")
    code, _, err = run(capsys, "classify", str(bad))
    assert code == EXIT_USAGE
    assert "line 2" in err


def test_unknown_input_is_usage_error(capsys):
    code, _, err = run(capsys, "classify", "no/such/file.g6")
    assert code == EXIT_USAGE


def test_sweep_enumerate_and_resume(capsys, tmp_path):
    report = tmp_path / "report.jsonl"
    code, out, _ = run(capsys, "sweep", "--enumerate", "4", "-o", str(report))
    assert code == EXIT_OK
    lines = report.read_text().strip().splitlines()
    assert len(lines) == 9  # K2 (excluded) + 2 graphs on n=3 + 6 on n=4
    assert "graphs checked: 9" in out
    # resuming adds nothing new
    code2, out2, _ = run(
        capsys, "sweep", "--enumerate", "4", "-o", str(report), "--resume"
    )
    assert code2 == EXIT_OK
    assert len(report.read_text().strip().splitlines()) == 9
    assert "graphs checked: 0" in out2


def test_sweep_resume_after_a_torn_last_line(capsys, tmp_path):
    report = tmp_path / "report.jsonl"
    code, _, _ = run(capsys, "sweep", "--enumerate", "4", "-o", str(report))
    assert code == EXIT_OK
    lines = report.read_text().splitlines()
    torn = json.loads(lines[-1])["graph"]
    # an interrupted run: the last record was cut mid-line
    report.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])
    code, out, _ = run(
        capsys, "sweep", "--enumerate", "4", "-o", str(report), "--resume"
    )
    assert code == EXIT_OK
    assert "graphs checked: 1" in out
    records = [json.loads(line) for line in report.read_text().splitlines()]
    assert [r["graph"] for r in records] == [json.loads(x)["graph"] for x in lines]
    assert records[-1]["graph"] == torn


@pytest.mark.parametrize("line", ['{"x":1}', "[1]"])
def test_sweep_resume_rejects_a_report_line_that_is_not_a_record(capsys, tmp_path, line):
    report = tmp_path / "report.jsonl"
    code, _, _ = run(capsys, "sweep", "cycle:5", "-o", str(report))
    assert code == EXIT_OK
    report.write_text(report.read_text() + line + "\n")
    before = report.read_text()
    code, _, err = run(capsys, "sweep", "cycle:5", "-o", str(report), "--resume")
    assert code == EXIT_USAGE
    assert "line 2: not a sweep record" in err and "Traceback" not in err
    assert report.read_text() == before


def test_sweep_report_is_flushed_after_each_record(capsys, tmp_path, monkeypatch):
    import lirdec.cli as cli

    report = tmp_path / "report.jsonl"
    real_sweep = cli.sweep
    on_disk = []

    def watched(*args, **kwargs):
        for i, record in enumerate(real_sweep(*args, **kwargs)):
            # asked for record i: records 0..i-1 must already be in the file
            on_disk.append(len(report.read_text().splitlines()) if i else 0)
            yield record

    monkeypatch.setattr(cli, "sweep", watched)
    code, _, _ = run(capsys, "sweep", "--enumerate", "4", "-o", str(report))
    assert code == EXIT_OK
    assert on_disk == list(range(9))


def test_sweep_enumerate_streams_one_order_at_a_time(capsys, tmp_path, monkeypatch):
    import lirdec.cli as cli

    report = tmp_path / "report.jsonl"
    real_enumerate = cli.enumerate_connected
    on_disk = {}

    def logged(n):
        # records already in the report when order n is asked for
        on_disk[n] = len(report.read_text().splitlines())
        return real_enumerate(n)

    monkeypatch.setattr(cli, "enumerate_connected", logged)
    code, _, _ = run(capsys, "sweep", "--enumerate", "4", "-o", str(report))
    assert code == EXIT_OK
    # K2 is on disk before order 3 is built, and orders 2 and 3 before order 4
    assert on_disk == {2: 0, 3: 1, 4: 3}


def test_sweep_enumerate_with_jobs_writes_before_the_last_order(capsys, tmp_path, monkeypatch):
    import lirdec.cli as cli

    report = tmp_path / "report.jsonl"
    real_enumerate = cli.enumerate_connected
    on_disk = {}

    def logged(n):
        on_disk[n] = len(report.read_text().splitlines()) if report.exists() else 0
        return real_enumerate(n)

    monkeypatch.setattr(cli, "enumerate_connected", logged)
    code, _, _ = run(capsys, "sweep", "--enumerate", "7", "--jobs", "2", "-o", str(report))
    assert code == EXIT_OK
    # at most 2 * jobs chunks of 8 graphs are in flight while one more is
    # read, so at most 40 of the 142 graphs on 2..6 vertices are not yet on
    # disk when order 7 is built
    assert on_disk[7] >= 142 - 5 * 8
    assert len(report.read_text().splitlines()) == 142 + 853


@pytest.mark.parametrize("limit", ["9", "-1", "0"])
def test_sweep_enumerate_out_of_range_writes_nothing(capsys, tmp_path, monkeypatch, limit):
    import lirdec.cli as cli

    def refused(n):
        raise AssertionError(f"order {n} enumerated for an out-of-range limit")

    monkeypatch.setattr(cli, "enumerate_connected", refused)
    report = tmp_path / "report.jsonl"
    code, out, err = run(capsys, "sweep", "--enumerate", limit, "-o", str(report))
    assert code == EXIT_USAGE
    assert out == "" and "Traceback" not in err
    assert not report.exists()
    code, out, _ = run(capsys, "sweep", "--enumerate", limit)
    assert code == EXIT_USAGE and out == ""


def test_sweep_stdout_records(capsys, tmp_path):
    g6 = tmp_path / "one.g6"
    g6.write_text(to_graph6(cycle_graph(6)) + "\n")
    code, out, err = run(capsys, "sweep", str(g6))
    assert code == EXIT_OK
    record = json.loads(out.strip().splitlines()[0])
    assert record["result"] == "lir<=2"
    assert "graphs checked: 1" in err


def test_sweep_goes_on_past_k1(capsys, tmp_path):
    # K2, K1, then the path on 3 vertices
    g6 = tmp_path / "small.g6"
    g6.write_text("A_\n@\nBw\n")
    code, out, err = run(capsys, "sweep", str(g6))
    assert code == EXIT_OK
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["graph"] for r in records] == ["A_", "@", "Bw"]
    assert [r["result"] for r in records] == ["excluded", "excluded", "lir<=2"]
    assert "no edges" in records[1]["detail"]
    assert "graphs checked: 3" in err


def test_sweep_jobs_flag(capsys, tmp_path):
    code, out, err = run(capsys, "sweep", "--enumerate", "4", "--jobs", "2")
    assert code == EXIT_OK
    assert "graphs checked: 9" in err


def test_randbip_family_uses_seed(capsys):
    code1, out1, _ = run(capsys, "color", "randbip:14", "--seed", "5")
    code2, out2, _ = run(capsys, "color", "randbip:14", "--seed", "5")
    code3, out3, _ = run(capsys, "color", "randbip:14", "--seed", "6")
    assert code1 == code2 == code3 == EXIT_OK
    assert out1 == out2
    assert out1 != out3


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["color"])  # missing input
    assert exc.value.code == EXIT_USAGE


def test_module_entry_point_subprocess():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "lirdec.cli", "classify", "cycle:4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert "class=cycle" in proc.stdout


def test_the_cli_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter, since the suite itself may have loaded both
    import subprocess
    import sys

    probe = "import sys, lirdec.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("flag", ["--max-colors", "--max-edges", "--node-budget"])
def test_zero_limit_is_usage_error(capsys, flag):
    code, _, err = run(capsys, "exact", "cycle:5", flag, "0")
    assert code == EXIT_USAGE
    assert "limits must be positive" in err


def test_zero_limit_rejected_even_when_colorer_applies(capsys):
    code, _, err = run(capsys, "color", "cycle:5", "--max-colors", "0")
    assert code == EXIT_USAGE
    assert "limits must be positive" in err


def test_sweep_over_edge_cap_is_inconclusive_not_abort(capsys, tmp_path):
    from lirdec.graphs import SimpleGraph, complete_graph

    # K8 without 0-1 and 1-2: 26 edges on the exact route, over the default 24
    k8_minus_path = SimpleGraph(
        8, [e for e in complete_graph(8).edges if e not in ((0, 1), (1, 2))]
    )
    g6 = tmp_path / "dense.g6"
    g6.write_text(to_graph6(k8_minus_path) + "\n" + to_graph6(cycle_graph(5)) + "\n")
    code, out, err = run(capsys, "sweep", str(g6))
    assert code == EXIT_OK
    first, second = (json.loads(line) for line in out.splitlines())
    assert first["result"] == "inconclusive"
    assert "edge cap 26 > max_edges 24" in first["detail"]
    assert second["result"] == "lir<=2"
    assert "graphs checked: 2" in err


def test_sweep_into_closed_pipe_exits_quietly(tmp_path):
    import subprocess
    import sys

    from lirdec.graphs import path_graph

    # far more output than a pipe buffers, so writes go on after the close
    g6 = tmp_path / "paths.g6"
    g6.write_text((to_graph6(path_graph(60)) + "\n") * 400)
    proc = subprocess.Popen(
        [sys.executable, "-m", "lirdec.cli", "sweep", str(g6)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_OK
    assert json.loads(first)["result"] == "lir<=2"
    assert err == ""


def test_exit_codes_have_their_documented_values():
    assert (EXIT_OK, EXIT_INVALID, EXIT_INCONCLUSIVE, EXIT_USAGE) == (0, 1, 2, 64)


def test_color_k2_names_the_exclusion_alone(capsys):
    for argv in (["path:2"], ["path:2", "--exact"]):
        assert run(capsys, "color", *argv) == (EXIT_INVALID, "", "K2 is excluded by the conjecture statement\n")


@pytest.mark.parametrize("suffix", [".edges", ".txt"])
def test_an_edge_list_file_is_read_by_its_suffix(capsys, tmp_path, suffix):
    path = tmp_path / f"c4{suffix}"
    path.write_text("# a 4-cycle\n0 1\n1 2\n2 3\n3 0\n")
    code, out, _ = run(capsys, "classify", str(path))
    assert code == EXIT_OK and out == "Cl n=4 m=4 class=cycle\n"
    # the same text under another name is read as graph6
    other = tmp_path / "c4.g6"
    other.write_text(path.read_text())
    code, out, err = run(capsys, "classify", str(other))
    assert code == EXIT_USAGE and out == "" and err.startswith(f"lirdec: {other}: line 1: ")


def test_an_edge_list_error_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("0 1\n1 x\n")
    assert run(capsys, "classify", str(path)) == (
        EXIT_USAGE, "", "lirdec: line 2: non-integer vertex in '1 x'\n"
    )


def test_verify_reads_stdin_and_lists_each_conflict(capsys, monkeypatch):
    import io

    def edges(*counts):
        return ",".join(f'{{"counts":{list(c)},"u":{u},"v":{v}}}'.replace(" ", "") for (u, v), c in counts)

    cases = [
        # the doubled K2 red-blue: a conflict in each color, by color
        ('{"edges":[%s],"k":2,"n":2}' % edges(((0, 1), (1, 1))),
         ["color 0 edge (0,1) equal degree 1", "color 1 edge (0,1) equal degree 1"]),
        # the doubled K2 all in the second of three colors
        ('{"edges":[%s],"k":3,"n":2}' % edges(((0, 1), (0, 2, 0))), ["color 1 edge (0,1) equal degree 2"]),
        # the doubled 4-cycle all red: every edge, in edge order
        ('{"edges":[%s],"k":2,"n":4}' % edges(*(((u, v), (2, 0)) for u, v in cycle_graph(4).edges)),
         [f"color 0 edge ({u},{v}) equal degree 4" for u, v in cycle_graph(4).edges]),
    ]
    for payload, conflicts in cases:
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        want = f"invalid: {len(conflicts)} conflicts\n" + "".join(f"  {c}\n" for c in conflicts)
        assert run(capsys, "verify", "-") == (EXIT_INVALID, want, "")
    monkeypatch.setattr("sys.stdin", io.StringIO('{"edges":[%s],"k":2,"n":3}' % edges(((0, 1), (1, 1)), ((1, 2), (1, 1)))))
    assert run(capsys, "verify", "-") == (EXIT_OK, "valid\n", "")


def test_verify_of_a_missing_file_is_a_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "verify", str(tmp_path / "none.json"))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("lirdec: [Errno 2] No such file or directory")


def test_exact_prints_the_color_count_then_the_witness(capsys):
    code, out, _ = run(capsys, "exact", "cycle:5")
    assert code == EXIT_OK
    first, second = out.splitlines()
    assert first == "k=2"
    d = decomposition_from_json(second)
    assert d.k == 2 and d.host == double(cycle_graph(5)) and verify(d).valid
    code, out, _ = run(capsys, "exact", "path:5", "--graph-mode")
    assert (code, out) == (
        EXIT_OK,
        'k=2\n{"edges":[{"counts":[1,0],"u":0,"v":1},{"counts":[1,0],"u":1,"v":2},'
        '{"counts":[0,1],"u":2,"v":3},{"counts":[0,1],"u":3,"v":4}],"k":2,"n":5}\n',
    )


@pytest.mark.parametrize("command", ["color", "exact"])
def test_color_and_exact_take_exactly_one_graph(capsys, tmp_path, command):
    two = tmp_path / "two.g6"
    two.write_text("Bw\nBg\n")
    assert run(capsys, command, str(two)) == (
        EXIT_USAGE, "", f"lirdec: {command} expects exactly one input graph\n"
    )
    empty = tmp_path / "empty.g6"
    empty.write_text("\n")
    assert run(capsys, command, str(empty))[0] == EXIT_USAGE


def test_sweep_without_input_is_a_usage_error(capsys):
    assert run(capsys, "sweep") == (EXIT_USAGE, "", "lirdec: sweep needs an input file or --enumerate N\n")


def test_a_second_sweep_into_a_report_without_resume_appends_every_graph(capsys, tmp_path):
    report = tmp_path / "report.jsonl"
    for lines in (1, 2):
        code, out, _ = run(capsys, "sweep", "cycle:5", "-o", str(report))
        assert code == EXIT_OK and "graphs checked: 1" in out
        assert len(report.read_text().splitlines()) == lines


def test_the_seed_and_jobs_defaults():
    from lirdec.cli import build_parser

    parser = build_parser()
    for argv in (["color", "path:3"], ["exact", "path:3"], ["classify", "path:3"], ["sweep"]):
        assert parser.parse_args(argv).seed == 0
    assert parser.parse_args(["sweep"]).jobs == 1


def test_randbip_without_a_seed_uses_seed_zero(capsys):
    assert run(capsys, "color", "randbip:14") == run(capsys, "color", "randbip:14", "--seed", "0")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "B_"], "classification requires a connected graph"),
        (["exact", "A?"], "nothing to double: graph has no edges"),
        (["classify", "path:x"], "bad family spec 'path:x': invalid literal for int() with base 10: 'x'"),
        (["classify", "cycle:2"], "bad family spec 'cycle:2': cycle needs length >= 3"),
        (["classify", "kpartite:2,x"], "bad family spec 'kpartite:2,x': invalid literal for int() with base 10: 'x'"),
        (["classify", "randbip:1"], "bad family spec 'randbip:1': need n >= 2"),
        (["classify", "B"], "input 'B' is not a file, family spec, or graph6 string: graph6 body for n=3 needs 1 chars, got 0"),
    ],
)
def test_each_bad_input_message(capsys, argv, message):
    assert run(capsys, *argv) == (EXIT_USAGE, "", f"lirdec: {message}\n")


DISCONNECTED = (EXIT_USAGE, "", "lirdec: color needs a connected graph\n")


@pytest.mark.parametrize(
    "argv, expected",
    [
        # B_ is one edge beside an isolated vertex
        pytest.param(["color", "B_"], DISCONNECTED, id="color"),
        pytest.param(["color", "B_", "--bipartite"], DISCONNECTED, id="color-bipartite"),
        pytest.param(["color", "B_", "--exact"], DISCONNECTED, id="color-exact"),
        pytest.param(["color", "A?"], DISCONNECTED, id="color-edgeless"),
        # no coloring exists, so exact's answer is true
        pytest.param(["exact", "B_"], (EXIT_INVALID, "none (no coloring with k<=4)\n", ""), id="exact"),
    ],
)
def test_a_disconnected_input_gets_one_answer_on_every_route(capsys, argv, expected):
    assert run(capsys, *argv) == expected


@pytest.mark.parametrize(
    "route",
    [
        pytest.param([], id="auto"),
        pytest.param(["--bipartite"], id="bipartite"),
        pytest.param(["--exact"], id="exact"),
    ],
)
@pytest.mark.parametrize("graph", ["@", "?", "path:1"], ids=["K1", "K0", "path1"])
def test_an_edgeless_input_gets_one_answer_on_every_color_route(capsys, graph, route):
    # K0 and K1 are connected, but they have no edge to double
    assert run(capsys, "color", graph, *route) == (EXIT_USAGE, "", "lirdec: nothing to double: graph has no edges\n")


def test_bipartite_and_exact_together_are_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["color", "cycle:4", "--bipartite", "--exact"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (EXIT_USAGE, "")
    assert "--exact: not allowed with argument --bipartite" in err


@pytest.mark.parametrize("flag", ["--max-colors", "--max-edges", "--node-budget"])
def test_classify_takes_no_limit_flags(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "cycle:5", flag, "0"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (EXIT_USAGE, "")
    assert f"unrecognized arguments: {flag} 0" in err


def test_an_empty_graph6_file_holds_no_graph(capsys, tmp_path):
    empty = tmp_path / "empty.g6"
    empty.write_text("\n  \n")
    assert run(capsys, "color", str(empty)) == (EXIT_USAGE, "", "lirdec: color expects exactly one input graph\n")
    assert run(capsys, "classify", str(empty)) == (EXIT_OK, "", "")


def test_sweep_enumerate_one_checks_no_graph(capsys):
    assert run(capsys, "sweep", "--enumerate", "1") == (EXIT_OK, "", "graphs checked: 0\n")


def test_sweep_closes_its_report(capsys, tmp_path, monkeypatch):
    import lirdec.cli as cli

    opened = []

    def recorded(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(cli, "open", recorded, raising=False)
    code, _, _ = run(capsys, "sweep", "cycle:5", "-o", str(tmp_path / "report.jsonl"))
    assert code == EXIT_OK
    assert opened and all(fh.closed for fh in opened)


def test_an_invalid_colorer_witness_is_an_internal_error(capsys, monkeypatch):
    import lirdec.cli as cli
    from lirdec.decomposition import Decomposition

    # all red: every vertex of the doubled 5-cycle has red degree 4
    monkeypatch.setattr(cli, "color_double_auto", lambda g: Decomposition(double(g), 2, [(2, 0)] * g.m))
    with pytest.raises(AssertionError, match=r"^emitted witness failed verification: \[\(0, \(0, 1\), 4\)"):
        main(["color", "cycle:5"])


def test_a_closed_stdout_ends_the_run_with_0_and_points_stdout_at_devnull(monkeypatch, tmp_path):
    import io
    import os

    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

    class Closed(io.TextIOBase):
        def write(self, text):
            raise BrokenPipeError

        def fileno(self):
            return fd

    monkeypatch.setattr("sys.stdout", Closed())
    try:
        assert main(["classify", "cycle:4"]) == EXIT_OK
        # what is still buffered goes to devnull at exit
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
