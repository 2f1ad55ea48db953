"""Mutation audit of one module: which single edits can its tests not see?

    python tools/mutants.py src/lirdec/solver.py tests/test_solver.py [more test files]

Run from the repository root. The root is copied once into a temporary
directory, and each mutant in turn overwrites the module there. A mutant is
one edit of the module's syntax tree:

- a statement replaced by `pass` (docstrings, `pass` and imports excepted);
- a comparison flipped to its negation (`<` to `>=`, `in` to `not in`, ...);
- an integer constant moved by +1 or -1;
- a slice `[:1]` turned into `[-1:]`, or back;
- `and` turned into `or`, or back.

Each mutant runs the given test files, serially, stopping at the first
failure, with a timeout of three times their clean run (a mutant that loops
is killed by it). Every mutant they do not kill runs the rest of the suite
the same way, its files in the order of their clean run times, fastest
first. The report lists, by line of the original module, every mutant that
survived the given tests and whether the whole suite killed it; a mutant that
survives both is a statement or value the suite cannot tell apart from the
edit, so it is either dead code, code that only saves time, or a gap in the
tests. The last line counts the mutants and both kinds of survivors. A run
ended by SIGTERM removes its copy and exits with 143.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

FLIP = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Lt: ast.GtE, ast.GtE: ast.Lt,
    ast.Gt: ast.LtE, ast.LtE: ast.Gt,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
PLUGINS = ["-p", "hypothesis.extra.pytestplugin"] if importlib.util.find_spec("hypothesis") else []


def _is_docstring(parent: ast.AST, i: int, stmt: ast.stmt) -> bool:
    return (
        i == 0
        and isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


def _is_one(node) -> bool:
    return isinstance(node, ast.Constant) and node.value == 1 and type(node.value) is int


def _is_minus_one(node) -> bool:
    return isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub) and _is_one(node.operand)


def sites(tree: ast.Module) -> list[tuple[int, str, object]]:
    """Every mutation of tree, in a fixed order, as (line, label, apply):
    apply() edits tree in place. Parsing the same source again gives the
    same list, so a mutant is named by its index."""
    found = []
    for node in ast.walk(tree):
        for name, value in ast.iter_fields(node):
            if not isinstance(value, list):
                continue
            for i, stmt in enumerate(value):
                if not isinstance(stmt, ast.stmt) or isinstance(stmt, (ast.Pass, ast.Import, ast.ImportFrom)):
                    continue
                if name == "body" and _is_docstring(node, i, stmt):
                    continue
                first = ast.unparse(stmt).splitlines()[0]
                found.append((stmt.lineno, f"pass: {first}", lambda body=value, i=i: body.__setitem__(i, ast.Pass())))
        if isinstance(node, ast.Compare):
            for j, op in enumerate(node.ops):
                new = FLIP[type(op)]()
                label = f"flip: {ast.unparse(node)} ({j + 1})" if len(node.ops) > 1 else f"flip: {ast.unparse(node)}"
                found.append((node.lineno, label, lambda node=node, j=j, new=new: node.ops.__setitem__(j, new)))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            for d in (1, -1):
                def shift(node=node, d=d):
                    node.value += d
                found.append((node.lineno, f"int: {node.value} -> {node.value + d}", shift))
        elif isinstance(node, ast.Slice) and node.step is None:
            if node.lower is None and _is_one(node.upper):
                def to_last(node=node):
                    node.lower, node.upper = ast.UnaryOp(ast.USub(), ast.Constant(1)), None
                found.append((node.lineno, "slice: [:1] -> [-1:]", to_last))
            elif _is_minus_one(node.lower) and node.upper is None:
                def to_first(node=node):
                    node.lower, node.upper = None, ast.Constant(1)
                found.append((node.lineno, "slice: [-1:] -> [:1]", to_first))
        elif isinstance(node, ast.BoolOp):
            new = ast.Or() if isinstance(node.op, ast.And) else ast.And()
            label = f"boolop: {ast.unparse(node)}"
            found.append((node.lineno, label, lambda node=node, new=new: setattr(node, "op", new)))
    return sorted(found, key=lambda site: site[0])


def mutant(source: str, index: int) -> str:
    """The source with mutation number index applied."""
    tree = ast.parse(source)
    sites(tree)[index][2]()
    return ast.unparse(tree)


def run_tests(root: str, args: list[str], timeout: float | None) -> tuple[str, float, str]:
    """Run pytest in root: 'pass', 'fail' or 'timeout', the wall time and
    the output."""
    # no plugin is autoloaded, which saves about 0.5 s a run here; the
    # suite needs only hypothesis's, loaded by name when it is installed
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    paths = [os.path.join(root, "src"), root]
    env["PYTHONPATH"] = os.pathsep.join(paths + [env["PYTHONPATH"]] if env.get("PYTHONPATH") else paths)
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *PLUGINS, *args]
    start = time.perf_counter()
    try:
        done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start, ""
    return ("pass" if done.returncode == 0 else "fail"), time.perf_counter() - start, done.stdout


def suite_files(root: str) -> list[tuple[float, str]]:
    """The suite's test files with their clean run times, fastest first, or
    an empty list when one of them fails."""
    outcome, _, listing = run_tests(root, ["--collect-only"], None)
    if outcome != "pass":
        return []
    timed = []
    for path in dict.fromkeys(line.split("::")[0] for line in listing.splitlines() if "::" in line):
        outcome, seconds, _ = run_tests(root, [path], None)
        if outcome != "pass":
            return []
        timed.append((seconds, path))
    return sorted(timed)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 64
    module, tests = argv[0], [os.path.normpath(t) for t in argv[1:]]
    with open(module, encoding="utf-8") as fh:
        source = fh.read()
    found = sites(ast.parse(source))
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(".", copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        target = os.path.join(copy, module)
        # the clean runs are on the unparsed module, as every mutant is
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(ast.unparse(ast.parse(source)))
        timed = suite_files(copy)
        if not timed:
            print(f"{module}: the suite fails on the unmutated module", file=sys.stderr)
            return 1
        local_s = sum(seconds for seconds, path in timed if os.path.normpath(path) in tests)
        # the rest of the suite, fastest file first, so that most kills are quick
        rest = [path for _, path in timed if os.path.normpath(path) not in tests]
        if len(timed) - len(rest) != len(tests):
            print(f"{module}: the suite does not collect every given test file", file=sys.stderr)
            return 1
        rest_s = sum(seconds for seconds, path in timed if path in rest)
        survivors = []
        for index, (line, label, _) in enumerate(found):
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(mutant(source, index))
            outcome, _, _ = run_tests(copy, tests, 3 * local_s + 1)
            if outcome == "pass":
                suite = run_tests(copy, rest, 3 * rest_s + 1)[0] if rest else "pass"
                survivors.append((line, label, suite))
                outcome = f"pass, whole suite {suite}"
            print(f"[{index + 1}/{len(found)}] {module}:{line} {label}: {outcome}", file=sys.stderr, flush=True)
    for line, label, suite in survivors:
        verdict = "SURVIVES the whole suite" if suite == "pass" else f"killed by the whole suite ({suite})"
        print(f"{module}:{line}: {label} -- {verdict}")
    whole = sum(suite == "pass" for _, _, suite in survivors)
    print(
        f"{module}: {len(found)} mutants, {len(survivors)} survive {' '.join(tests)},"
        f" {whole} survive the whole suite"
    )
    return 0


if __name__ == "__main__":
    # SIGTERM as SystemExit unwinds the temporary directory, so no copy is left
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main(sys.argv[1:]))
