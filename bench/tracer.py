"""Per-layer tracing from outside the program.

`Tracer.install()` replaces every module-level binding of each traced
`lirdec` function (in every loaded `lirdec` module, so `from x import f`
copies are covered too) with a wrapper that counts calls and self time;
`uninstall()` puts the originals back. Self time is a call's duration minus
the time spent in traced calls it made. Functions that return a
`SolveResult` also sum its `nodes`. Nothing inside `src/` changes.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, attribute path) in lirdec; a name the program no longer has reads 0
TRACED = (
    ("enumeration", "canonical_key"),
    ("solver", "exact_lir_multigraph"),
    ("solver", "is_decomposable"),
    ("classify", "classify"),
    ("colorers", "color_double_auto"),
    ("colorers", "color_double_multipartite"),
    ("bipartite", "color_double_bipartite"),
    ("decomposition", "verify"),
    ("graph_io", "decomposition_to_json"),
    ("graph_io", "to_graph6"),
    ("graph_io", "parse_graph6"),
    ("harness", "SweepRecord.to_json"),
)
COUNTS_NODES = {"solver.exact_lir_multigraph", "solver.is_decomposable"}
# traced while inputs load, not during passes
SETUP_TRACED = {"graph_io.parse_graph6"}


class Stat:
    __slots__ = ("calls", "self_s", "nodes")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.nodes = 0


class Tracer:
    def __init__(self):
        self.stats = {f"{mod}.{path}": Stat() for mod, path in TRACED}
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, stat: Stat, fn, count_nodes: bool):
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stat.calls += 1
                stat.self_s += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if count_nodes:
                stat.nodes += result.nodes
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "lirdec" or name.startswith("lirdec.")]
        for mod_name, path in TRACED:
            key = f"{mod_name}.{path}"
            owner = sys.modules.get(f"lirdec.{mod_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(self.stats[key], original, key in COUNTS_NODES)
            holders = [owner] if outer else modules
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, wrapper)
                        self._patched.append((holder, name, original))

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patched):
            setattr(holder, name, original)
        self._patched.clear()

    def snapshot(self) -> dict[str, tuple[int, float, int]]:
        return {k: (s.calls, s.self_s, s.nodes) for k, s in self.stats.items()}
