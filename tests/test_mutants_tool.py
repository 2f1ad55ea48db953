"""Smoke tests of tools/mutants.py on a toy project: two mutants, the
audited test file and one more file as the rest of the suite."""

import importlib.util
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"


def toy_project(root: Path) -> None:
    (root / "src").mkdir(parents=True)
    (root / "tests").mkdir()
    (root / "src" / "toy.py").write_text("def echo(x):\n    print(x)\n")
    (root / "tests" / "test_toy.py").write_text(
        "from toy import echo\n\n\ndef test_echo():\n    assert echo(3) is None\n"
    )
    (root / "tests" / "test_rest.py").write_text(
        "from toy import echo\n\n\ndef test_echo_none():\n    assert echo(None) is None\n"
    )


def test_the_audit_reports_the_one_mutant_its_test_cannot_see(tmp_path):
    toy_project(tmp_path)
    done = subprocess.run(
        [sys.executable, str(TOOL), "src/toy.py", "tests/test_toy.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    # `def echo` as pass fails the audited test; `print(x)` as pass fails
    # neither file
    assert done.stdout.splitlines() == [
        "src/toy.py:2: pass: print(x) -- SURVIVES the whole suite",
        "src/toy.py: 2 mutants, 1 survive tests/test_toy.py, 1 survive the whole suite",
    ]
    assert done.stderr.count(": fail\n") == 1
    assert done.stderr.count(": pass, whole suite pass\n") == 1


def test_a_terminated_audit_removes_its_copy_of_the_repo(tmp_path):
    project, tmp = tmp_path / "project", tmp_path / "tmp"
    toy_project(project)
    tmp.mkdir()
    audit = subprocess.Popen(
        [sys.executable, str(TOOL), "src/toy.py", "tests/test_toy.py"],
        cwd=project, env=dict(os.environ, TMPDIR=str(tmp)),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 30
        while not any(tmp.glob("*/repo")) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert any(tmp.glob("*/repo"))
        audit.send_signal(signal.SIGTERM)
        assert audit.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        audit.kill()
        audit.wait()
    assert list(tmp.iterdir()) == []


@pytest.mark.parametrize(
    "timeouts, verdict",
    [
        pytest.param(1, "pass", id="once"),
        pytest.param(2, "timeout", id="twice"),
    ],
)
def test_a_timed_out_run_is_tried_once_more(monkeypatch, timeouts, verdict):
    # a run can time out because the host is busy: only two timeouts in a
    # row make the verdict
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    calls = []

    def run(command, timeout, **kwargs):
        calls.append(timeout)
        if len(calls) <= timeouts:
            raise subprocess.TimeoutExpired(command, timeout)
        return subprocess.CompletedProcess(command, 0, "", "")

    monkeypatch.setattr(mutants.subprocess, "run", run)
    assert mutants.run_tests("root", ["tests/test_toy.py"], 5.0)[0] == verdict
    assert calls == [5.0, 5.0]
