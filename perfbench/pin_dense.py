"""Build pinned_dense.json: the random dense graphs of the graph-dense workload
with their composition counts.

Each graph is a seeded G(n, p) draw, redrawn until it is biconnected, so the
program's decomposition finds a single block and the subset DP does the work.
A count is pinned only when the program gives the same number under the
original labelling and under a random relabelling, and, for graphs of at most
10 vertices, when enumerating every set partition agrees as well. The
workload then draws graphs from this pool and relabels them per seed.

Run from the repository root (takes about two minutes):

    PYTHONPATH=src python3 perfbench/pin_dense.py
"""

import json
from random import Random

from compcount.graphcomp import (
    ENUMERATION_VERTEX_LIMIT,
    LabeledGraph,
    count_compositions_graph,
    enumerate_graph_compositions,
)

from workloads import PINNED_DENSE

# The 13-vertex graphs stay at the dense end so that the few of them in a
# pass cost about the same whichever the seed picks.
POOL = {10: (0.4, 0.5, 0.6, 0.7, 0.8), 11: (0.4, 0.5, 0.6, 0.7, 0.8),
        12: (0.4, 0.5, 0.6, 0.7, 0.8), 13: (0.6, 0.7, 0.8)}
PER_DENSITY = 3


def _connected(n: int, edges, removed: int | None = None) -> bool:
    adj = {v: set() for v in range(n) if v != removed}
    for u, v in edges:
        if removed not in (u, v):
            adj[u].add(v)
            adj[v].add(u)
    start = next(iter(adj))
    seen, stack = {start}, [start]
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == len(adj)


def biconnected(n: int, edges) -> bool:
    return _connected(n, edges) and all(_connected(n, edges, v) for v in range(n))


def random_biconnected(rng: Random, n: int, p: float) -> list[tuple[int, int]]:
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        if biconnected(n, edges):
            return edges


def pinned_count(rng: Random, n: int, edges) -> int:
    count = count_compositions_graph(LabeledGraph(n, frozenset(edges)))
    perm = list(range(n))
    rng.shuffle(perm)
    relabelled = frozenset((perm[u], perm[v]) for u, v in edges)
    if count_compositions_graph(LabeledGraph(n, relabelled)) != count:
        raise ArithmeticError(f"relabelling changed the count of {edges}")
    if n <= ENUMERATION_VERTEX_LIMIT:
        if len(enumerate_graph_compositions(LabeledGraph(n, frozenset(edges)))) != count:
            raise ArithmeticError(f"enumeration disagrees on {edges}")
    return count


def main() -> None:
    rng = Random("compcount-dense-pool")
    pool = []
    for n, densities in POOL.items():
        for p in densities:
            for _ in range(PER_DENSITY):
                edges = random_biconnected(rng, n, p)
                pool.append({"n": n, "p": p, "edges": edges,
                             "count": str(pinned_count(rng, n, edges))})
                print(n, p, len(edges), pool[-1]["count"], flush=True)
    PINNED_DENSE.write_text(
        "[\n" + ",\n".join(json.dumps(entry, separators=(",", ":")) for entry in pool) + "\n]\n")


if __name__ == "__main__":
    main()
