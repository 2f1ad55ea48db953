"""Command-line interface.

Subcommands: color, verify, exact, classify, sweep. Exit codes are part of
the contract: 0 success/valid, 1 invalid or proven-absent, 2 inconclusive,
64 usage or input errors. A reader that closes stdout early (as `| head`
does) ends the run quietly with 0. Default search limits come from the
environment (LIRDEC_MAX_COLORS, LIRDEC_MAX_EDGES, LIRDEC_NODE_BUDGET) and are
overridden by flags; a limit below 1 is a usage error.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import Iterator

from .bipartite import color_double_bipartite
from .classify import classify, recognize_t_prime
from .colorers import color_double_auto
from .decomposition import Decomposition, verify
from .enumeration import ENUMERATION_LIMIT, enumerate_connected, random_connected_bipartite
from .graph_io import (
    Graph6Error,
    decomposition_from_json,
    decomposition_to_dot,
    decomposition_to_json,
    parse_edge_list,
    parse_graph6,
    read_graph6_lines,
)
from .graphs import (
    SimpleGraph,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    double,
    path_graph,
    wheel_graph,
)
from .harness import SweepSummary, _graph_id, drop_torn_tail, load_report_ids, sweep
from .solver import (
    SearchLimits,
    SearchStatus,
    exact_lir_graph,
    exact_lir_multigraph,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64

# families whose spec is name:N, built by one call on the integer N
_SIZED_FAMILIES = {
    "path": path_graph,
    "cycle": cycle_graph,
    "wheel": wheel_graph,
    "complete": complete_graph,
}
FAMILIES = (*_SIZED_FAMILIES, "kpartite", "randbip")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; scripts expect 64
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _family_graph(spec: str, seed: int) -> SimpleGraph:
    name, _, arg = spec.partition(":")
    try:
        if name in _SIZED_FAMILIES:
            return _SIZED_FAMILIES[name](int(arg))
        if name == "kpartite":
            return complete_multipartite_graph([int(s) for s in arg.split(",") if s])
        return random_connected_bipartite(int(arg), random.Random(seed))  # randbip, the last of FAMILIES
    except ValueError as exc:
        raise ValueError(f"bad family spec {spec!r}: {exc}") from exc


def _load_graphs(spec: str, seed: int) -> list[SimpleGraph]:
    """Resolve the single input source: family spec, file, or inline graph6."""
    name = spec.partition(":")[0]
    if name in FAMILIES:
        return [_family_graph(spec, seed)]
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
        if spec.endswith(".edges") or spec.endswith(".txt"):
            return [parse_edge_list(text)]
        try:
            return list(read_graph6_lines(text))
        except Graph6Error as exc:
            raise ValueError(f"{spec}: {exc}") from exc
    try:
        return [parse_graph6(spec)]
    except Graph6Error as exc:
        raise ValueError(
            f"input {spec!r} is not a file, family spec, or graph6 string: {exc}"
        ) from exc


def _limits(args) -> SearchLimits:
    """Flags over environment (LIRDEC_<NAME>) over the SearchLimits
    defaults; SearchLimits rejects values < 1."""
    return SearchLimits(**{
        name: int(os.environ.get(f"LIRDEC_{name.upper()}", default))
        if getattr(args, name) is None else getattr(args, name)
        for name, default in SearchLimits()._asdict().items()
    })


def _emit(decomposition: Decomposition, fmt: str, out) -> None:
    if fmt == "json":
        out.write(decomposition_to_json(decomposition) + "\n")
    elif fmt == "dot":
        out.write(decomposition_to_dot(decomposition))
    else:
        out.write(f"n={decomposition.host.n} k={decomposition.k}\n")
        for (u, v), counts in zip(decomposition.host.edges, decomposition.vectors):
            out.write(f"{u} {v} {' '.join(map(str, counts))}\n")


def _one_graph(args) -> SimpleGraph:
    """The input of color and exact, which take exactly one graph."""
    graphs = _load_graphs(args.input, args.seed)
    if len(graphs) != 1:
        raise ValueError(f"{args.command} expects exactly one input graph")
    return graphs.pop()


def _cmd_color(args, out) -> int:
    g = _one_graph(args)
    lim = _limits(args)
    if not g.is_connected():
        raise ValueError("color needs a connected graph")
    host = double(g)  # rejects an edgeless graph, the same on every route
    if g.m == 1:  # a connected graph with one edge is K2
        sys.stderr.write("K2 is excluded by the conjecture statement\n")
        return EXIT_INVALID
    if args.exact:
        d = None
    elif args.bipartite:
        d = color_double_bipartite(g)
    else:
        d = color_double_auto(g)
    if d is None:
        res = exact_lir_multigraph(host, lim)
        if res.status is SearchStatus.INCONCLUSIVE:
            sys.stderr.write("search inconclusive: node budget exhausted\n")
            return EXIT_INCONCLUSIVE
        if res.status is SearchStatus.NONE:
            sys.stderr.write("no coloring within the color limit\n")
            return EXIT_INVALID
        d = res.witness  # the solver has verified it
    else:
        report = verify(d)
        if not report.valid:
            raise AssertionError(f"emitted witness failed verification: {report.conflicts}")
    _emit(d, args.format, out)
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(str(exc)) from exc
    try:
        d = decomposition_from_json(text)
    except ValueError as exc:
        raise ValueError(f"bad decomposition JSON: {exc}") from exc
    report = verify(d)
    if report.valid:
        out.write("valid\n")
        return EXIT_OK
    out.write(f"invalid: {len(report.conflicts)} conflicts\n")
    for color, (u, v), deg in report.conflicts:
        out.write(f"  color {color} edge ({u},{v}) equal degree {deg}\n")
    return EXIT_INVALID


def _cmd_exact(args, out) -> int:
    g = _one_graph(args)
    lim = _limits(args)
    if args.graph_mode:
        res = exact_lir_graph(g, lim)
    else:
        res = exact_lir_multigraph(double(g), lim)
    if res.status is SearchStatus.FOUND:
        out.write(f"k={res.colors}\n")
        out.write(decomposition_to_json(res.witness) + "\n")
        return EXIT_OK
    if res.status is SearchStatus.NONE:
        out.write(f"none (no coloring with k<={lim.max_colors})\n")
        return EXIT_INVALID
    out.write("inconclusive (node budget exhausted)\n")
    return EXIT_INCONCLUSIVE


def _cmd_classify(args, out) -> int:
    graphs = _load_graphs(args.input, args.seed)
    for g in graphs:
        tag = classify(g)
        prime = recognize_t_prime(g)
        gid = _graph_id(g)
        extra = f" parts={list(tag.part_sizes)}" if tag.part_sizes else ""
        nd = f" non-decomposable-family={prime.kind.value}" if prime.member else ""
        out.write(f"{gid} n={g.n} m={g.m} class={tag.kind.value}{extra}{nd}\n")
    return EXIT_OK


def _enumerated(limit: int) -> Iterator[SimpleGraph]:
    """The built-in catalog on 2..limit vertices, one order at a time: order
    n is enumerated only once order n - 1 has been consumed. The limit is
    checked here, before anything is swept."""
    if limit < 1:
        raise ValueError("--enumerate needs N >= 1")
    if limit > ENUMERATION_LIMIT:
        raise ValueError(
            f"built-in enumeration supports n <= {ENUMERATION_LIMIT}; "
            "ingest a graph6 file for larger orders"
        )
    return (g for n in range(2, limit + 1) for g in enumerate_connected(n))


def _cmd_sweep(args, out) -> int:
    if args.enumerate is not None:
        graphs = _enumerated(args.enumerate)
    else:
        if not args.input:
            raise ValueError("sweep needs an input file or --enumerate N")
        graphs = _load_graphs(args.input, args.seed)
    if args.output:
        drop_torn_tail(args.output)
    skip = load_report_ids(args.output) if args.resume and args.output else set()
    lim = _limits(args)
    summary = SweepSummary()
    # a report is line-buffered: a killed run loses at most the line in progress
    sink = open(args.output, "a", encoding="utf-8", buffering=1) if args.output else out
    try:
        for record in sweep(graphs, lim, args.cross_check, args.jobs, skip):
            summary.add(record)
            sink.write(record.to_json() + "\n")
        table_out = out if args.output else sys.stderr
        table_out.write(summary.table() + "\n")
    finally:
        if args.output:
            sink.close()
    return EXIT_OK if summary.counterexample_candidates == 0 else EXIT_INVALID


def build_parser() -> _Parser:
    parser = _Parser(
        prog="lirdec",
        description="Locally irregular decompositions of doubled multigraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_input=True):
        if with_input:
            p.add_argument(
                "input",
                help="graph6 file, inline graph6 string, edge list (.edges/.txt), "
                "or family spec like path:7, cycle:11, wheel:6, complete:5, "
                "kpartite:2,2,3, randbip:12",
            )
        p.add_argument("--seed", type=int, default=0, help="seed for randbip inputs")

    p_color = sub.add_parser("color", help="construct a locally irregular coloring of the doubled graph")
    add_common(p_color)
    p_color.add_argument("--format", choices=("json", "dot", "summary"), default="json")
    route = p_color.add_mutually_exclusive_group()
    route.add_argument("--bipartite", action="store_true", help="force the bipartite construction")
    route.add_argument("--exact", action="store_true", help="force the exact solver")
    p_color.set_defaults(func=_cmd_color)

    p_verify = sub.add_parser("verify", help="verify a decomposition JSON (file or - for stdin)")
    p_verify.add_argument("input")
    p_verify.set_defaults(func=_cmd_verify)

    p_exact = sub.add_parser("exact", help="exact smallest color count")
    add_common(p_exact)
    p_exact.add_argument(
        "--graph-mode",
        action="store_true",
        help="solve the simple graph (one color per edge) instead of its doubling",
    )
    p_exact.set_defaults(func=_cmd_exact)

    p_classify = sub.add_parser("classify", help="structural class and family membership")
    add_common(p_classify)
    p_classify.set_defaults(func=_cmd_classify)

    p_sweep = sub.add_parser("sweep", help="conjecture sweep over a graph corpus")
    add_common(p_sweep, with_input=False)
    p_sweep.add_argument("input", nargs="?", help="graph6 file (one graph per line)")
    p_sweep.add_argument("--enumerate", type=int, metavar="N", help="built-in catalog up to N vertices (N<=8)")
    p_sweep.add_argument("--output", "-o", help="JSON-lines report path (appended)")
    p_sweep.add_argument("--resume", action="store_true", help="skip ids already in the report")
    p_sweep.add_argument("--cross-check", action="store_true", help="run exact solver even when a colorer matched")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.set_defaults(func=_cmd_sweep)
    for p in (p_color, p_exact, p_sweep):  # classify searches nothing
        for flag in ("--max-colors", "--max-edges", "--node-budget"):
            p.add_argument(flag, type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except ValueError as exc:
        sys.stderr.write(f"lirdec: {exc}\n")
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader went away (`lirdec sweep ... | head`): stop quietly, and
        # send the rest of the buffered output, flushed at exit, to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
