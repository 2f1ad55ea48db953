"""Benchmark for lirdec: one workload per run, outputs checked independently.

    python3 bench/run.py --workload {catalog,sweep8,decide7,construct} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. The program is imported from `src/`; every
measured step runs in a fresh worker process (`worker.py`). The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (end-to-end metrics with `--trace 0`, per-layer ones with
`--trace 1`). See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
from tracer import COUNTS_NODES, SETUP_TRACED, TRACED

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("catalog", "sweep8", "decide7", "construct")
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 150


def worker(*args: str) -> dict:
    """Run one worker to completion; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        env=worker_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worker_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from starting a fresh process until its inputs are ready
    (scaled to the nominal host speed), and the raw `import lirdec.cli` time
    inside it."""
    t0 = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(WORKER), "probe", "--workload", workload, "--seed", str(seed)],
        env=worker_env(), stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        ready = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    if code != 0 or not line:
        raise RuntimeError(f"set-up probe for {workload} exited {code}")
    out = json.loads(line)
    return (ready - out["spent"]) * out["factor"], out["import_s"]


def catalog_passes(seconds: float, trace: bool) -> dict:
    """Cold catalog builds, one fresh worker each, until the build whose end
    lands nearest `seconds`; with tracing, untraced and traced builds alternate."""
    plain, traced, problems, errors = [], [], [], []
    attempted = failed = 0
    checked = None
    start = perf_counter()
    while True:
        t0 = perf_counter()
        for mode in (0, 1) if trace else (0,):
            attempted += 1
            try:
                out = worker("catalog", "--trace", str(mode))
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                failed += 1
                errors.append(f"catalog build failed: {exc}")
                continue
            lists = (out.pop("general"), out.pop("bipartite"))
            if lists != checked:
                general, bipartite = ({int(n): gs for n, gs in cat.items()} for cat in lists)
                problems += checks.check_catalog(general, bipartite)
                checked = lists
            out["graphs"] = len(lists[0]["8"]) + len(lists[1]["9"])
            (traced if mode else plain).append(out)
        if perf_counter() - start + (perf_counter() - t0) / 2 > seconds:
            break
    result = {"attempted": attempted, "failed": failed, "problems": problems, "errors": errors}
    if plain:
        walls = [p["build_s"] for p in plain]
        per_graph_ms = statistics.median(1000 * w / p["graphs"] for w, p in zip(walls, plain))
        result.update(
            walls=walls,
            raw_walls=[p["raw_s"] for p in plain],
            per_graph_ms=(per_graph_ms, per_graph_ms),
            rss_mb=statistics.median(p["rss_mb"] for p in plain),
        )
    if traced:
        result.update(
            traced_walls=[p["raw_s"] for p in traced],
            stats=sum_stats([p["stats"] for p in traced]),
            traced_passes=len(traced),
            setup_stats={},
        )
    return result


def sum_stats(snapshots: list[dict]) -> dict:
    total: dict[str, list] = {}
    for snap in snapshots:
        for key, vals in snap.items():
            acc = total.setdefault(key, [0, 0.0, 0])
            for i, v in enumerate(vals):
                acc[i] += v
    return total


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(res: dict, setup_s: float) -> dict:
    if "per_graph_median_s" in res:
        p50, tail = (1000 * x for x in res["per_graph_median_s"])
    else:
        p50, tail = res["per_graph_ms"]
    return {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(statistics.median(res["walls"]), "s"),
        "graph_p50_ms": metric(p50, "ms"),
        "graph_tail_ms": metric(tail, "ms"),
        "peak_rss_mb": metric(res["rss_mb"], "MB"),
    }


def per_layer(res: dict, import_s: float) -> dict:
    """Per traced pass, except set-up layers, which are per input load."""
    out = {}
    passes = res["traced_passes"]
    stats = {**res["stats"], **res["setup_stats"]}
    for mod, path in TRACED:
        key = f"{mod}.{path}"
        calls, self_s, nodes = stats.get(key, (0, 0.0, 0))
        per = 1 if key in SETUP_TRACED else passes
        out[f"{key}.calls"] = metric(calls / per, "count")
        out[f"{key}.self_s"] = metric(self_s / per, "s")
        if key in COUNTS_NODES:
            out[f"{key}.nodes"] = metric(nodes / per, "count")
            out[f"{key}.nodes_per_s"] = metric(nodes / self_s if self_s else 0.0, "1/s")
    out["cli.import_s"] = metric(import_s, "s")
    overhead = statistics.median(res["traced_walls"]) / statistics.median(res["raw_walls"]) - 1
    out["trace.overhead_pct"] = metric(100 * overhead, "%")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="lirdec benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lirdec" / "__init__.py").is_file():
        print(f"no lirdec sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2

    setup_probe(args.workload, args.seed)  # unmeasured: fills the bytecode and file caches
    probes = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    setup_s = statistics.median(p[0] for p in probes)
    import_s = statistics.median(p[1] for p in probes)

    if args.workload == "catalog":
        res = catalog_passes(args.seconds, bool(args.trace))
    else:
        res = worker(
            "passes", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        )
    if res["failed"] == res["attempted"] or not res.get("walls") or (args.trace and not res.get("traced_passes")):
        print("every operation failed; nothing to measure", file=sys.stderr)
        for p in res["errors"]:
            print(f"  {p}", file=sys.stderr)
        return 1
    metrics = per_layer(res, import_s) if args.trace else end_to_end(res, setup_s)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(res['walls'])}"
          f"{' + %d traced' % res['traced_passes'] if args.trace else ''}"
          f"  operations {res['attempted']}  failed {res['failed']}")
    print("pass walls at nominal host speed (s): " + " ".join(f"{w:.3f}" for w in res["walls"]))
    print("pass walls as measured (s):           " + " ".join(f"{w:.3f}" for w in res["raw_walls"]))
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    for p in res["errors"]:
        print(f"OPERATION FAILED: {p}")
    for p in res["problems"]:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
