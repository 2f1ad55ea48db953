"""Smoke test of tools/mutants.py on a toy project: two mutants, the
audited test file and one more file as the rest of the suite."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"


def test_the_audit_reports_the_one_mutant_its_test_cannot_see(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "toy.py").write_text("def echo(x):\n    print(x)\n")
    (tmp_path / "tests" / "test_toy.py").write_text(
        "from toy import echo\n\n\ndef test_echo():\n    assert echo(3) is None\n"
    )
    (tmp_path / "tests" / "test_rest.py").write_text(
        "from toy import echo\n\n\ndef test_echo_none():\n    assert echo(None) is None\n"
    )
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
