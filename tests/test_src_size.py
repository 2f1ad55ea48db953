"""tools/src_size.py counts lines and non-docstring statements."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_size.py"


def test_the_report_counts_lines_and_every_statement_but_docstrings(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(
        '"""Module."""\n\n\nclass A:\n    """Class."""\n\n    def f(self):\n        """Method."""\n        return "not a docstring"\n'
    )
    (tmp_path / "pkg" / "b.py").write_text('x = 1\n"""not a docstring either"""\nif x:\n    x += 1\n')
    done = subprocess.run(
        [sys.executable, str(TOOL), "pkg/a.py", "pkg/b.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "pkg lines: 13",
        "```",
        "    9 pkg/a.py",
        "    4 pkg/b.py",
        "   13 total",
        "```",
        "pkg statements: 7",
        "```",
        "    3 pkg/a.py",
        "    4 pkg/b.py",
        "```",
    ]
