"""One fresh benchmark process; `run.py` starts it with `src/` on PYTHONPATH.

    worker.py probe   --workload W --seed S    import lirdec, load inputs, report
    worker.py catalog --trace T                one cold catalog build
    worker.py passes  --workload W --seed S --seconds X --trace T

Prints one JSON object as its last line. Program calls go through module
attributes looked up at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
from time import perf_counter

import checks
from inputs import INPUT_FILES, construct_corpus, decode_graph6, encode_graph6
from hostspeed import Sampler
from tracer import SETUP_TRACED, Tracer

SWEEP_MAX_EDGES = 28  # as in the catalog test: the default cap aborts 4 n = 8 graphs
DECIDE7_NONE = 10
# a median over at least three passes keeps one slow pass of a graph (a
# collection, a burst of host load) out of its latency
MIN_PASSES = 3


def import_lirdec(sampler: Sampler) -> float:
    """Seconds to import the program, excluding the sampler's own time."""
    t0, s0 = perf_counter(), sampler.spent
    import lirdec.cli  # noqa: F401  (imports every module, as `lirdec` start-up does)

    return perf_counter() - t0 - (sampler.spent - s0)


def load_inputs(workload: str, seed: int, with_specs: bool):
    """Program graphs, plus the benchmark's own `(n, edges)` copies for the
    checks when `with_specs`. Input order is shuffled by the seed."""
    from lirdec import graph_io, graphs

    rng = random.Random(seed)
    if workload == "construct":
        specs = construct_corpus(seed)
        return [graphs.SimpleGraph(n, edges) for n, edges in specs], specs
    lines = [ln for ln in INPUT_FILES[workload].read_text().splitlines() if ln.strip()]
    rng.shuffle(lines)
    program = list(graph_io.read_graph6_lines("\n".join(lines)))
    return program, [decode_graph6(ln) for ln in lines] if with_specs else None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cmd_probe(args) -> dict:
    """Import and load under the sampler; `run.py` times this process from
    its start to the printed line."""
    sampler = Sampler()
    sampler.start()
    import_s = import_lirdec(sampler)
    if args.workload != "catalog":
        load_inputs(args.workload, args.seed, with_specs=False)
    sampler.stop()
    return {"import_s": import_s, "spent": sampler.spent, "factor": sampler.factor(0)}


def cmd_catalog(args) -> dict:
    """One cold build; sampled and scaled untraced, raw when traced."""
    sampler = Sampler()
    import_lirdec(sampler)
    from lirdec import enumeration

    tracer = Tracer()
    if args.trace:
        tracer.install()
    else:
        sampler.start()
    t0, s0, m0 = perf_counter(), sampler.spent, sampler.mark()
    general = enumeration.enumerate_connected(8)
    bip9 = enumeration.enumerate_connected_bipartite(9)
    raw = perf_counter() - t0 - (sampler.spent - s0)
    sampler.stop()
    rss = peak_rss_mb()
    tracer.uninstall()
    orders = {n: enumeration.enumerate_connected(n) for n in range(1, 8)}
    orders[8] = general
    bip = {8: enumeration.enumerate_connected_bipartite(8), 9: bip9}

    def export(cat):
        return {n: [encode_graph6(g.n, g.edges) for g in gs] for n, gs in cat.items()}

    return {
        "build_s": raw if args.trace else raw * sampler.factor(m0),
        "raw_s": raw,
        "rss_mb": rss,
        "stats": tracer.snapshot(),
        "general": export(orders),
        "bipartite": export(bip),
    }


class Passes:
    """Whole passes over one workload's inputs, each output checked as it
    arrives (outside the timed region)."""

    def __init__(self, workload: str, graphs, specs):
        from lirdec import harness, solver

        self.workload = workload
        self.graphs = graphs
        self.specs = specs
        self.harness = harness
        self.solver = solver
        self.lim = solver.SearchLimits(max_edges=SWEEP_MAX_EDGES)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # failed checks
        self.errors: list[str] = []  # failed operations
        self.brute: dict[int, bool] = {}
        self.sampler = Sampler()

    def _note(self, where: list[str], i: int, text: str) -> None:
        if len(where) < 20:
            where.append(f"{self.workload} input {i} ({encode_graph6(*self.specs[i])[:40]}): {text}")

    def run(self, sampled: bool) -> tuple[list, float]:
        """One pass: per-graph seconds (None where the call failed), without
        the sampler's time, and the pass's host-speed factor (1 unsampled)."""
        lat: list[float | None] = [None] * len(self.graphs)
        self.attempted += len(self.graphs)
        since = self.sampler.mark()
        if sampled:
            self.sampler.start()
        try:
            (self._decide if self.workload == "decide7" else self._sweep)(lat)
        finally:
            self.sampler.stop()
        return lat, self.sampler.factor(since) if sampled else 1.0

    def _sweep(self, lat) -> None:
        graphs = self.graphs
        it = self.harness.sweep(graphs, self.lim)
        sampler = self.sampler
        for i in range(len(graphs)):
            t0, s0 = perf_counter(), sampler.spent
            try:
                text = next(it).to_json()
            except Exception as exc:  # a failed operation: count it, go on from the next graph
                self.failed += 1
                self._note(self.errors, i, f"raised {exc!r}")
                it = self.harness.sweep(graphs[i + 1 :], self.lim)
                continue
            lat[i] = perf_counter() - t0 - (sampler.spent - s0)
            problem = checks.check_sweep_record(text, self.specs[i])
            if problem:
                self._note(self.problems, i, problem)

    def _decide(self, lat) -> None:
        nones = 0
        sampler = self.sampler
        for i, g in enumerate(self.graphs):
            t0, s0 = perf_counter(), sampler.spent
            try:
                r = self.solver.is_decomposable(g)
            except Exception as exc:
                self.failed += 1
                self._note(self.errors, i, f"raised {exc!r}")
                continue
            lat[i] = perf_counter() - t0 - (sampler.spent - s0)
            spec = self.specs[i]
            status = r.status.value
            if status == "found":
                w = r.witness
                counts = {e: tuple(c) for e, c in w.assign.items()}
                problem = checks.check_witness(spec, w.k, counts, multiplicity=1, max_k=max(1, len(spec[1]) // 2))
            elif status == "none":
                nones += 1
                if i not in self.brute:
                    self.brute[i] = checks.has_lir_partition(spec)
                problem = "reported none, but a partition exists" if self.brute[i] else None
            else:
                problem = f"status {status}"
            if problem:
                self._note(self.problems, i, problem)
        if nones != DECIDE7_NONE and not self.failed:
            self.problems.append(f"decide7: {nones} none results, expected {DECIDE7_NONE}")


def cmd_passes(args) -> dict:
    """At least MIN_PASSES passes, then on until the one whose end lands
    nearest `--seconds`. Untraced passes are sampled and scaled; with
    tracing, each is followed by a traced pass."""
    import_lirdec(Sampler())
    tracer = Tracer()
    if args.trace:
        tracer.install()
    graphs, specs = load_inputs(args.workload, args.seed, with_specs=True)
    tracer.uninstall()
    setup_stats = {k: v for k, v in tracer.snapshot().items() if k in SETUP_TRACED}
    runner = Passes(args.workload, graphs, specs)
    plain, raw_walls, traced_walls = [], [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        lat, factor = runner.run(sampled=True)
        raw_walls.append(sum(x for x in lat if x is not None))
        plain.append([x * factor if x is not None else None for x in lat])
        if args.trace:
            tracer.install()
            lat, _ = runner.run(sampled=False)
            tracer.uninstall()
            traced_walls.append(sum(x for x in lat if x is not None))
        step = perf_counter() - t0
        if len(plain) >= MIN_PASSES and perf_counter() - start + step / 2 > args.seconds:
            break
    rss = peak_rss_mb()
    per_graph = sorted(
        statistics.median(xs) for xs in ([x for x in col if x is not None] for col in zip(*plain)) if xs
    )
    return {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "errors": runner.errors,
        "walls": [sum(x for x in lat if x is not None) for lat in plain],
        "raw_walls": raw_walls,
        "traced_walls": traced_walls,
        "per_graph_median_s": [per_graph[len(per_graph) // 2], per_graph[-min(11, len(per_graph))]] if per_graph else None,
        "rss_mb": rss,
        "setup_stats": setup_stats,
        "stats": {k: v for k, v in tracer.snapshot().items() if k not in SETUP_TRACED},
        "traced_passes": len(traced_walls),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("probe", "catalog", "passes"))
    parser.add_argument("--workload", default="catalog")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    out = {"probe": cmd_probe, "catalog": cmd_catalog, "passes": cmd_passes}[args.mode](args)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
