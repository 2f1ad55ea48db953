"""Independent output checks. Nothing here calls into `lirdec`.

Graphs are `(n, edges)` pairs as in `inputs.py`.
"""

from __future__ import annotations

import json
import warnings

from inputs import decode_graph6, encode_graph6

# OEIS A001349 (connected graphs) and A005142 (connected bipartite graphs), by order
CONNECTED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
CONNECTED_BIPARTITE = {1: 1, 2: 1, 3: 1, 4: 3, 5: 5, 6: 17, 7: 44, 8: 182, 9: 730}
PARTITION_EDGE_LIMIT = 12

# networkx 3.5 changed its WL hashes; only equality within one run matters here
warnings.filterwarnings("ignore", message="The hashes produced", category=UserWarning)


def irregular_conflict(n: int, k: int, counts_by_edge: dict) -> str | None:
    """First edge whose color class ties its endpoints' color degrees."""
    deg = [[0] * k for _ in range(n)]
    for (u, v), counts in counts_by_edge.items():
        for c, x in enumerate(counts):
            deg[u][c] += x
            deg[v][c] += x
    for (u, v), counts in counts_by_edge.items():
        for c, x in enumerate(counts):
            if x and deg[u][c] == deg[v][c]:
                return f"edge {u}-{v} color {c}: both endpoints have degree {deg[u][c]}"
    return None


def check_witness(graph, k: int, counts_by_edge: dict, multiplicity: int, max_k: int) -> str | None:
    """A decomposition of the input with every edge taken `multiplicity`
    times: same edge set, count vectors of length k summing to the
    multiplicity, and every color class locally irregular."""
    n, edges = graph
    if not 1 <= k <= max_k:
        return f"witness uses {k} colors, more than {max_k}"
    if set(counts_by_edge) != set(edges):
        return "witness edges differ from the input edges"
    for e, counts in counts_by_edge.items():
        if len(counts) != k or min(counts) < 0 or sum(counts) != multiplicity:
            return f"edge {e}: counts {list(counts)} do not split multiplicity {multiplicity} into {k}"
    return irregular_conflict(n, k, counts_by_edge)


def check_sweep_record(text: str, graph) -> str | None:
    """One JSON-lines sweep record: `lir<=2` with a valid doubled witness."""
    n, edges = graph
    rec = json.loads(text)
    if rec["result"] != "lir<=2":
        return f"result {rec['result']!r}: {rec.get('detail', '')}"
    if (rec["n"], rec["m"]) != (n, len(edges)):
        return f"record describes n={rec['n']} m={rec['m']}, input has n={n} m={len(edges)}"
    if n <= 62 and rec["graph"] != encode_graph6(n, edges):
        return f"record id {rec['graph']!r} is not the input's graph6"
    w = rec["witness"]
    if w is None or w["n"] != n:
        return "record has no witness on the input's vertices"
    counts = {(e["u"], e["v"]): tuple(e["counts"]) for e in w["edges"]}
    if len(counts) != len(w["edges"]):
        return "witness repeats an edge"
    return check_witness(graph, w["k"], counts, multiplicity=2, max_k=2)


def has_lir_partition(graph) -> bool:
    """Brute force: does some partition of the edges into classes exist in
    which every class is locally irregular? Walks restricted-growth strings."""
    n, edges = graph
    m = len(edges)
    if m > PARTITION_EDGE_LIMIT:
        raise ValueError(f"{m} edges is too many for the brute-force partition check")
    labels = [0] * m

    def ok() -> bool:
        k = max(labels) + 1
        counts = {}
        for e, c in zip(edges, labels):
            vec = [0] * k
            vec[c] = 1
            counts[e] = vec
        return irregular_conflict(n, k, counts) is None

    def walk(i: int, used: int) -> bool:
        if i == m:
            return ok()
        for c in range(used + 1):
            labels[i] = c
            if walk(i + 1, max(used, c + 1)):
                return True
        return False

    return m == 0 or walk(0, 0)


def _nx(graph):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(graph[0]))
    g.add_edges_from(graph[1])
    return g


def _iso_classes(graphs, wl):
    """Group by WL hash, then split each bucket by isomorphism."""
    import networkx as nx

    buckets: dict[str, list[list]] = {}
    for g in graphs:
        classes = buckets.setdefault(wl(g, iterations=3), [])
        for cls in classes:
            if nx.is_isomorphic(g, cls[0]):
                cls.append(g)
                break
        else:
            classes.append([g])
    return [cls for classes in buckets.values() for cls in classes]


def check_catalog(general: dict[int, list[str]], bipartite: dict[int, list[str]]) -> list[str]:
    """Catalog lists of graph6 strings by order: OEIS counts, connectivity,
    bipartiteness, no isomorphic pair, and a one-to-one match with networkx's
    graph atlas for orders up to 7."""
    import networkx as nx
    from networkx.algorithms.graph_hashing import weisfeiler_lehman_graph_hash as wl

    problems = []
    atlas: dict[int, list] = {}
    for g in nx.graph_atlas_g():
        if g.number_of_nodes() >= 1 and nx.is_connected(g):
            atlas.setdefault(g.number_of_nodes(), []).append(g)
    for name, table, catalog in (
        ("connected", CONNECTED, general),
        ("connected bipartite", CONNECTED_BIPARTITE, bipartite),
    ):
        for n, lines in sorted(catalog.items()):
            if len(lines) != table[n]:
                problems.append(f"{name} n={n}: {len(lines)} graphs, OEIS says {table[n]}")
            graphs = []
            for line in lines:
                gn, edges = decode_graph6(line)
                g = _nx((gn, edges))
                if gn != n or not nx.is_connected(g):
                    problems.append(f"{name} n={n}: {line} is not a connected graph on {n} vertices")
                if table is CONNECTED_BIPARTITE and not nx.is_bipartite(g):
                    problems.append(f"{name} n={n}: {line} is not bipartite")
                graphs.append(g)
            classes = _iso_classes(graphs, wl)
            if len(classes) != len(graphs):
                problems.append(f"{name} n={n}: {len(graphs) - len(classes)} isomorphic duplicates")
            if table is CONNECTED and n in atlas:
                joint = _iso_classes(graphs + atlas[n], wl)
                if len(joint) != len(atlas[n]) or any(len(c) != 2 for c in joint):
                    problems.append(f"{name} n={n}: no one-to-one match with the graph atlas")
    return problems


def check_construct_corpus(graphs) -> list[str]:
    """Every corpus graph is simple, connected and not K2."""
    problems = []
    for i, (n, edges) in enumerate(graphs):
        if n < 3 or len(set(edges)) != len(edges) or any(not 0 <= u < v < n for u, v in edges):
            problems.append(f"graph {i}: not a simple graph on n={n} >= 3 vertices")
            continue
        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        seen, stack = {0}, [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != n:
            problems.append(f"graph {i}: not connected")
    if not graphs:
        problems.append("empty corpus")
    return problems
