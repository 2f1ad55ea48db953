"""Lines and statements of the program, per file and in total.

    python tools/src_size.py src/lirdec/*.py

Prints Markdown: the total lines, each file's lines (as `wc -l` prints
them), then the total statements and each file's statements. A statement is
an `ast.stmt` node that is not a docstring, so reflowing lines does not
change the count. CI appends the output to its step summary, and every
change to `src/` reports its counts from it.
"""

from __future__ import annotations

import ast
import os
import sys

DOCSTRING_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def statements(source: str) -> int:
    """The ast.stmt nodes of source that are not docstrings."""
    tree = ast.parse(source)
    docs = {
        id(node.body[0]) for node in ast.walk(tree)
        if isinstance(node, DOCSTRING_OWNERS)
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }
    return sum(isinstance(node, ast.stmt) and id(node) not in docs for node in ast.walk(tree))


def report(paths: list[str]) -> str:
    sources = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            sources.append(fh.read())
    lines = [source.count("\n") for source in sources]
    stmts = [statements(source) for source in sources]
    name = os.path.dirname(paths[0])
    out = [f"{name} lines: {sum(lines)}", "```"]
    out += [f"{count:5d} {path}" for count, path in zip(lines, paths)]
    out += [f"{sum(lines):5d} total", "```", f"{name} statements: {sum(stmts)}", "```"]
    out += [f"{count:5d} {path}" for count, path in zip(stmts, paths)]
    out.append("```")
    return "\n".join(out)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__.strip().splitlines()[2].strip())
    print(report(sys.argv[1:]))
