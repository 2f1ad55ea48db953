"""Benchmark inputs: graph6 codec, the seeded `construct` corpus, and the
command that regenerates each input file and re-checks it.

Nothing here imports `lirdec`, so a change to the program cannot change the
inputs. Graphs are plain `(n, edges)` pairs with edges as sorted `(u, v)`,
`u < v`.

Regenerate an input file and run its independent checks:

    python3 bench/inputs.py connected8 [--seed S] [--out PATH]
    python3 bench/inputs.py atlas7     [--seed S] [--out PATH]
    python3 bench/inputs.py construct  [--seed S] [--out PATH]

`connected8` and `atlas7` need networkx; the seed sets their line order
(runs reshuffle by their own seed). `construct` is generated in memory by
every run from the run's seed; the command writes one corpus to a file for
inspection.
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
OUT = Path(__file__).resolve().parent / "out"
INPUT_FILES = {"sweep8": DATA / "connected8.g6", "decide7": DATA / "atlas7.g6"}
DEFAULT_SEED = 0

Graph = tuple[int, list[tuple[int, int]]]


# --- graph6 ----------------------------------------------------------------


def encode_graph6(n: int, edges) -> str:
    """graph6 with the `~` long form above 62 vertices."""
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[k : k + 6])), 2))
        for k in range(0, len(bits), 6)
    )
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    return head + body


def decode_graph6(text: str) -> Graph:
    data = text.strip()
    if data[0] == "~":
        n = ((ord(data[1]) - 63) << 12) | ((ord(data[2]) - 63) << 6) | (ord(data[3]) - 63)
        body = data[4:]
    else:
        n, body = ord(data[0]) - 63, data[1:]
    bits = "".join(format(ord(ch) - 63, "06b") for ch in body)
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    if len(body) != (len(pairs) + 5) // 6:
        raise ValueError(f"graph6 body length does not match n={n}: {text!r}")
    return n, [p for p, b in zip(pairs, bits) if b == "1"]


# --- the construct corpus ----------------------------------------------------


def _relabel(n: int, edges, rng: random.Random) -> Graph:
    perm = list(range(n))
    rng.shuffle(perm)
    return n, sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def _random_bipartite(n: int, a: int, rng: random.Random, density: float = 0.2) -> Graph:
    """Connected bipartite with sides of a and n - a vertices: a random
    spanning tree across the split, plus cross edges kept with probability
    `density`."""
    side = [0] * a + [1] * (n - a)
    rest = [v for v in range(n) if v not in (0, a)]
    rng.shuffle(rest)
    placed = {0: [0], 1: [a]}
    edges = {(0, a)}
    for v in rest:
        u = rng.choice(placed[1 - side[v]])
        edges.add((min(u, v), max(u, v)))
        placed[side[v]].append(v)
    for u in range(a):
        for v in range(a, n):
            if (u, v) not in edges and rng.random() < density:
                edges.add((u, v))
    return _relabel(n, edges, rng)


def size_vectors(max_parts: int = 6, max_total: int = 18) -> list[tuple[int, ...]]:
    """Every non-decreasing part-size vector with 2..max_parts parts, except K2."""
    out = []
    for k in range(2, max_parts + 1):
        for v in itertools.combinations_with_replacement(range(1, max_total), k):
            if sum(v) <= max_total and v != (1, 1):
                out.append(v)
    return out


def construct_corpus(seed: int) -> list[Graph]:
    """Graphs that a class colorer covers, so no exact search runs.

    500 random connected bipartite graphs (ten per order 10..59, with the
    smaller side at 5, 10, .., 50 % of the vertices), paths and cycles on
    3..395 vertices, wheels on 4..196, K3..K40, and every complete
    multipartite size vector with at most 6 parts and 18 vertices. The seed
    draws the bipartite edges and relabels every graph at random; the sizes
    are fixed, so that the corpus's cost varies little from seed to seed.
    """
    rng = random.Random(seed)
    out = [
        _random_bipartite(n, max(1, n * j // 20), rng)
        for n in range(10, 60)
        for j in range(1, 11)
    ]
    for n in range(3, 400, 8):
        out.append(_relabel(n, [(i, i + 1) for i in range(n - 1)], rng))
        out.append(_relabel(n, [(i, (i + 1) % n) for i in range(n)], rng))
    for n in range(4, 200, 8):
        rim = n - 1
        out.append(_relabel(n, [(i, (i + 1) % rim) for i in range(rim)] + [(i, rim) for i in range(rim)], rng))
    for n in range(3, 41):
        out.append(_relabel(n, list(itertools.combinations(range(n), 2)), rng))
    for sizes in size_vectors():
        bounds = list(itertools.accumulate(sizes, initial=0))
        edges = [
            (u, v)
            for i, j in itertools.combinations(range(len(sizes)), 2)
            for u in range(bounds[i], bounds[i + 1])
            for v in range(bounds[j], bounds[j + 1])
        ]
        out.append(_relabel(bounds[-1], edges, rng))
    return out


# --- regeneration ------------------------------------------------------------


def _connected8(seed: int) -> list[Graph]:
    """Connected graphs on 8 vertices, built without lirdec: every one is a
    connected 7-vertex atlas graph plus a vertex joined to a nonempty subset
    (a non-cut vertex always exists), deduplicated with networkx."""
    import networkx as nx
    from networkx.algorithms.graph_hashing import weisfeiler_lehman_graph_hash as wl

    buckets: dict[str, list] = {}
    reps = []
    for base in nx.graph_atlas_g():
        if base.number_of_nodes() != 7 or not nx.is_connected(base):
            continue
        for r in range(1, 8):
            for subset in itertools.combinations(range(7), r):
                h = base.copy()
                h.add_edges_from((7, u) for u in subset)
                bucket = buckets.setdefault(wl(h, iterations=3), [])
                if not any(nx.is_isomorphic(h, other) for other in bucket):
                    bucket.append(h)
                    reps.append((8, sorted(tuple(sorted(e)) for e in h.edges())))
    random.Random(seed).shuffle(reps)
    return reps


def _atlas7(seed: int) -> list[Graph]:
    """The 995 connected graphs on 2..7 vertices of networkx's graph atlas."""
    import networkx as nx

    graphs = [
        (g.number_of_nodes(), sorted(tuple(sorted(e)) for e in g.edges()))
        for g in nx.graph_atlas_g()
        if g.number_of_nodes() >= 2 and nx.is_connected(g)
    ]
    random.Random(seed).shuffle(graphs)
    return graphs


def main(argv: list[str] | None = None) -> int:
    import checks

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("input", choices=("connected8", "atlas7", "construct"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.input == "connected8":
        graphs, out = _connected8(args.seed), INPUT_FILES["sweep8"]
        problems = checks.check_catalog({8: [encode_graph6(*g) for g in graphs]}, {})
    elif args.input == "atlas7":
        graphs, out = _atlas7(args.seed), INPUT_FILES["decide7"]
        by_order: dict[int, list[str]] = {}
        for g in graphs:
            by_order.setdefault(g[0], []).append(encode_graph6(*g))
        problems = checks.check_catalog(by_order, {})
    else:
        graphs = construct_corpus(args.seed)
        out = OUT / f"construct-{args.seed}.g6"
        problems = checks.check_construct_corpus(graphs)
    out = args.out or out
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("".join(encode_graph6(*g) + "\n" for g in graphs))
    print(f"wrote {len(graphs)} graphs to {out}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print("checks passed" if not problems else f"{len(problems)} check failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
