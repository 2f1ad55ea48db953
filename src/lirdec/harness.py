"""Batch verification of the two-color conjecture over graph corpora.

Each input graph gets a SweepRecord: K2 is excluded by the conjecture
statement, K0 and K1 for having no edges to double; otherwise a matching
constructive colorer runs, falling back to the exact solver at two colors.
A counterexample candidate is recorded only when a COMPLETED exact search
finds nothing; blown budgets stay inconclusive, and so do graphs over the
exact search's edge cap. Each witness is verified exactly once: inside the
solver for exact witnesses, at the record for constructive ones. The
benchmark's independent witness check (bench/checks.py) is the second look.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Iterator, NamedTuple

from .classify import classify
from .colorers import color_double_auto
from .decomposition import Decomposition, verify
from .graph_io import decomposition_to_json, to_graph6
from .graphs import SimpleGraph, double
from .solver import SearchLimits, SearchStatus, exact_lir_multigraph

RESULT_TWO_COLORS = "lir<=2"
RESULT_CANDIDATE = "counterexample-candidate"
RESULT_INCONCLUSIVE = "inconclusive"
RESULT_EXCLUDED = "excluded"
RESULT_ERROR = "error"


class SweepRecord(NamedTuple):
    graph_id: str  # graph6
    n: int
    m: int
    class_tag: str
    method: str  # constructive | exact | both | none
    result: str
    witness: Decomposition | None = None
    runtime: float = 0.0
    detail: str = ""

    def to_json(self) -> str:
        """The record as json.dumps writes it with sorted keys and compact
        separators, written directly: strings escaped to ASCII as json does,
        runtime rounded to microseconds."""
        witness = (
            decomposition_to_json(self.witness) if self.witness is not None else "null"
        )
        return (
            f'{{"class":{_quote(self.class_tag)},"detail":{_quote(self.detail)},'
            f'"graph":{_quote(self.graph_id)},"m":{self.m},"method":{_quote(self.method)},'
            f'"n":{self.n},"result":{_quote(self.result)},'
            f'"runtime":{round(self.runtime, 6)!r},"witness":{witness}}}'
        )


def check_graph(
    g: SimpleGraph, lim: SearchLimits | None = None, cross_check: bool = False
) -> SweepRecord:
    """Conjecture check for one connected graph."""
    return _check_graph(g, _graph_id(g), _two_colors(lim), cross_check)


def _graph_id(g: SimpleGraph) -> str:
    return to_graph6(g) if g.n <= 62 else f"n{g.n}m{g.m}"


def _two_colors(lim: SearchLimits | None) -> SearchLimits:
    """The exact fallback's limits: the caller's edge cap and node budget at
    two colors, built once per run."""
    lim = lim or SearchLimits()
    return SearchLimits(2, lim.max_edges, lim.node_budget)


def _record(g, gid, start, class_tag, method, result, detail="", witness=None) -> SweepRecord:
    """The record of g, timed from start."""
    return SweepRecord(gid, g.n, g.m, class_tag, method, result, witness, time.perf_counter() - start, detail)


def _check_graph(g: SimpleGraph, gid: str, lim: SearchLimits, cross_check: bool) -> SweepRecord:
    """check_graph with the graph's id and the two-color limits already
    built: each outcome is one record."""
    start = time.perf_counter()
    if g.n <= 2 and g.m == g.n // 2:  # K0, K1 or K2
        return _record(
            g, gid, start, "path", "none", RESULT_EXCLUDED,
            "excluded by conjecture statement" if g.m else "excluded: graph has no edges",
        )
    try:
        tag = classify(g)
    except ValueError as exc:
        return _record(g, gid, start, "?", "none", RESULT_ERROR, str(exc))
    kind = tag.kind.value
    witness = color_double_auto(g, tag)
    if witness is not None and not verify(witness).valid:
        raise AssertionError(f"constructive witness failed verification: {gid}")
    if witness is not None and not cross_check:
        return _record(g, gid, start, kind, "constructive", RESULT_TWO_COLORS, "", witness)
    if g.m > lim.max_edges:
        detail = f"exact search skipped: edge cap {g.m} > max_edges {lim.max_edges}"
        if witness is None:
            return _record(g, gid, start, kind, "exact", RESULT_INCONCLUSIVE, detail)
        return _record(g, gid, start, kind, "both", RESULT_TWO_COLORS, detail, witness)
    res = exact_lir_multigraph(double(g), lim)
    if witness is not None:  # the cross-check
        if res.status is SearchStatus.NONE:
            raise AssertionError(f"constructive witness exists but exact search found none: {gid}")
        return _record(
            g, gid, start, kind, "both", RESULT_TWO_COLORS,
            "constructive and exact agree" if res.found else "exact cross-check inconclusive", witness,
        )
    if res.found:
        return _record(g, gid, start, kind, "exact", RESULT_TWO_COLORS, "", res.witness)
    if res.status is SearchStatus.NONE:
        return _record(
            g, gid, start, kind, "exact", RESULT_CANDIDATE, "completed exact search found no two-coloring"
        )
    return _record(g, gid, start, kind, "exact", RESULT_INCONCLUSIVE, "node budget exhausted")


def _check_chunk(tasks) -> list[SweepRecord]:
    return [_check_graph(*task) for task in tasks]


def sweep(
    source: Iterable[SimpleGraph],
    lim: SearchLimits | None = None,
    cross_check: bool = False,
    jobs: int = 1,
    skip_ids: set[str] | None = None,
) -> Iterator[SweepRecord]:
    """Check every graph from the source, in input order.

    skip_ids supports resuming: graphs whose graph6 id is present are not
    re-checked. Workers share nothing; report order equals input order.
    With jobs > 1 the source is read in chunks of 8, and only 2 * jobs
    chunks are in flight: one more is submitted as each comes back.
    """
    lim = _two_colors(lim)
    # each graph's id is computed once, for the skip test and the record
    tasks = ((g, _graph_id(g), lim, cross_check) for g in source)
    if skip_ids:
        tasks = (task for task in tasks if task[0].n > 62 or task[1] not in skip_ids)
    if jobs <= 1:
        for task in tasks:
            yield _check_graph(*task)
        return
    from multiprocessing import Pool  # its import costs about 1 MB, so serial runs skip it

    chunks = iter(lambda: list(islice(tasks, 8)), [])
    with Pool(processes=jobs) as pool:
        pending = deque(pool.apply_async(_check_chunk, (c,)) for c in islice(chunks, 2 * jobs))
        while pending:
            records = pending.popleft().get()
            pending.extend(pool.apply_async(_check_chunk, (c,)) for c in islice(chunks, 1))
            yield from records


class SweepSummary:
    def __init__(self):
        self.total = 0
        self.by_result: dict[str, int] = {}
        self.by_method: dict[str, int] = {}

    def add(self, record: SweepRecord) -> None:
        self.total += 1
        self.by_result[record.result] = self.by_result.get(record.result, 0) + 1
        self.by_method[record.method] = self.by_method.get(record.method, 0) + 1

    @property
    def counterexample_candidates(self) -> int:
        return self.by_result.get(RESULT_CANDIDATE, 0)

    def table(self) -> str:
        lines = [f"graphs checked: {self.total}"]
        for key in sorted(self.by_result):
            lines.append(f"  result {key:<26} {self.by_result[key]}")
        for key in sorted(self.by_method):
            lines.append(f"  method {key:<26} {self.by_method[key]}")
        return "\n".join(lines)


def load_report_ids(path: str) -> set[str]:
    """Graph ids already present in a JSON-lines report (for --resume).

    An unparseable final line is a record torn by an interrupted run and is
    ignored, so its graph is checked again; one followed by more lines, or
    any line of JSON that is not a record, raises ValueError naming its
    line number.
    """
    ids = set()
    torn = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                if torn is not None:
                    raise ValueError(f"{path}: line {torn[0]}: {torn[1]}")
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    torn = (lineno, exc)
                    continue
                if not isinstance(record, dict) or not isinstance(record.get("graph"), str):
                    raise ValueError(f"{path}: line {lineno}: not a sweep record")
                ids.add(record["graph"])
    except FileNotFoundError:
        pass
    return ids


def drop_torn_tail(path: str) -> None:
    """Cut a report back to the end of its last complete line, so that a
    record appended next is not glued onto a fragment left by an
    interrupted run. A missing file is left missing."""
    try:
        fh = open(path, "rb+")
    except FileNotFoundError:
        return
    with fh:
        end = pos = os.fstat(fh.fileno()).st_size
        keep = 0
        while pos > 0:
            step = min(pos, 1 << 16)
            pos -= step
            fh.seek(pos)
            cut = fh.read(step).rfind(b"\n")
            if cut != -1:
                keep = pos + cut + 1
                break
        if keep != end:
            fh.truncate(keep)
