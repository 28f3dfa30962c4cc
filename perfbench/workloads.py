"""Seeded inputs for the three workloads.

``generate(name, seed)`` returns the argv list and the edge-list files the
program will see, plus an answer spec per query that ``references`` turns
into the expected output. The same seed gives byte-identical argv lists and
files. Generation uses only this package's own random streams, never the
program's graph builders, so a change in the program cannot change its
inputs.

Sizes come from fixed ranges cut into equal strata, one query near the
middle of each, and the seed moves each size only a little inside its
stratum. Choices that change a query's cost a lot (triangle kind, output
format, the k of a leading-part series) follow the stratum index. Every seed
then gives about the same mix of costs, while shapes, small parameters and
order change with the seed. Every graph gets a seeded random
vertex relabelling, so label order cannot flatter any algorithm.
"""

import json
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from random import Random

import references

RUN_DIR = ".perfbench_runs"
WORKLOADS = ("graph-sparse", "graph-dense", "sequences")
PINNED_DENSE = Path(__file__).with_name("pinned_dense.json")


@dataclass(frozen=True)
class Query:
    argv: tuple[str, ...]
    answer: tuple  # a spec for references.expected_outputs


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    queries: tuple[Query, ...]
    files: dict  # path relative to the repository root -> file text

    def digest(self) -> str:
        """sha256 over every argv and every file the program will read."""
        h = sha256()
        for query in self.queries:
            h.update("\0".join(query.argv).encode() + b"\n")
        for path in sorted(self.files):
            h.update(path.encode() + b"\n" + self.files[path].encode())
        return h.hexdigest()


def generate(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    rng = Random(f"{name}:{seed}")
    builder = {"graph-sparse": _graph_sparse, "graph-dense": _graph_dense,
               "sequences": _sequences}[name]
    queries, files = builder(rng, f"{RUN_DIR}/{name}-seed{seed}")
    return Workload(name, seed, tuple(queries), files)


# Share of its stratum over which the seed moves a draw.
JITTER = 0.2
GOLDEN = (5**0.5 - 1) / 2


def strata(rng: Random, count: int) -> list[float]:
    """One draw near the middle of each of count equal slices of [0, 1), in order."""
    return [(i + 0.5 + JITTER * (rng.random() - 0.5)) / count for i in range(count)]


def edge_list_text(rng: Random, n: int, edges) -> str:
    """The graph under a random relabelling, edges sorted by new labels."""
    perm = list(range(n))
    rng.shuffle(perm)
    relabelled = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)
    return f"{n}\n" + "".join(f"{u} {v}\n" for u, v in relabelled)


# ---------------------------------------------------------------- graph-sparse

# (kind, queries). Sizes run from 100 to 1000 vertices, weighted
# toward small graphs because the peel loop costs about n^2: size =
# 100 * 10**(u**SPARSE_SKEW) for stratified u.
SPARSE_MIX = (("path", 45), ("tree", 45), ("blocks", 60))
SPARSE_SKEW = 4.0
BELL_SMALL = references.bell_numbers(6)


# Every block type once: cycles of 4..14 vertices, ladders of 2..6 rungs,
# K3..K6, ordered so that the costly ones (most vertices) are spread evenly.
# Each block tree deals its blocks from this cycle, starting at a place set
# by its size stratum, so every seed builds the same mix of blocks.
BLOCK_TYPES = ([("cycle", k, k) for k in range(4, 15)] + [("ladder", r, 2 * r) for r in range(2, 7)]
               + [("complete", m, m) for m in range(3, 7)])
BLOCK_CYCLE = [kind for _, kind in sorted(
    ((rank * GOLDEN) % 1, kind[:2])
    for rank, kind in enumerate(sorted(BLOCK_TYPES, key=lambda t: -t[2])))]


def _path(rng: Random, n: int, stratum: int) -> tuple[list, int]:
    return [(i, i + 1) for i in range(n - 1)], 1 << (n - 1)


def _tree(rng: Random, n: int, stratum: int) -> tuple[list, int]:
    """Random recursive tree: each vertex hangs under a uniform earlier one."""
    return [(rng.randrange(v), v) for v in range(1, n)], 1 << (n - 1)


def block_tree(rng: Random, n: int, stratum: int) -> tuple[list, int]:
    """Blocks from BLOCK_CYCLE, starting at a place set by the stratum, glued
    at seeded cut vertices, with chains of 1..3 bridges in front of about
    half of them.

    Returns the edges and the composition count, the product over blocks of
    2^k - k (cycles), the rung recurrence (ladders), Bell(m) (K_m) and 2
    (bridges): the cut-vertex and bridge rule applied as the graph is built.
    """
    edges: list[tuple[int, int]] = []
    count = 1
    size = 1
    dealt = 7 * stratum
    while size < n:
        anchor = rng.randrange(size)
        if rng.random() < 0.5:
            for _ in range(rng.randint(1, 3)):
                if size < n:
                    edges.append((anchor, size))
                    anchor, size, count = size, size + 1, count * 2
        kind, k = BLOCK_CYCLE[dealt % len(BLOCK_CYCLE)]
        dealt += 1
        if kind == "cycle":
            block = [anchor] + list(range(size, size + k - 1))
            block_edges = [(block[i], block[(i + 1) % k]) for i in range(k)]
            block_count = references.cycle_count(k)
        elif kind == "ladder":
            block = [anchor] + list(range(size, size + 2 * k - 1))
            block_edges = [(block[2 * i], block[2 * i + 1]) for i in range(k)]
            block_edges += [(block[j], block[j + 2]) for j in range(2 * k - 2)]
            block_count = references.ladder_count(k)
        else:
            block = [anchor] + list(range(size, size + k - 1))
            block_edges = [(u, v) for i, u in enumerate(block) for v in block[i + 1:]]
            block_count = BELL_SMALL[k]
        if size + len(block) - 1 > n:
            break
        edges += block_edges
        size += len(block) - 1
        count *= block_count
    while size < n:  # fill up with pendant bridges
        edges.append((rng.randrange(size), size))
        size, count = size + 1, count * 2
    return edges, count


def _graph_sparse(rng: Random, run_dir: str) -> tuple[list, dict]:
    shapes = {"path": _path, "tree": _tree, "blocks": block_tree}
    slots = [(kind, round(100 * 10 ** (u ** SPARSE_SKEW)), stratum)
             for kind, count in SPARSE_MIX for stratum, u in enumerate(strata(rng, count))]
    rng.shuffle(slots)
    queries, files = [], {}
    for i, (kind, n, stratum) in enumerate(slots):
        edges, count = shapes[kind](rng, n, stratum)
        path = f"{run_dir}/{i:03d}-{kind}-{n}.txt"
        files[path] = edge_list_text(rng, n, edges)
        queries.append(Query(("graph", "count", "--file", path), ("value", count)))
    return queries, files


# ----------------------------------------------------------------- graph-dense

# n -> queries on (K_n, K_n minus an edge, pinned random graphs). The subset
# DP costs about 4^n here, so 13-vertex graphs are few; the counts put the
# median inside the 11-vertex cluster of costs and the 90th percentile inside
# the 12-vertex one, away from the gaps between clusters.
DENSE_MIX = {10: (12, 12, 36), 11: (13, 13, 40), 12: (3, 3, 12), 13: (2, 2, 2)}


def load_pinned() -> dict[int, list[dict]]:
    """Pinned random dense graphs by vertex count (see pin_dense.py)."""
    pool: dict[int, list[dict]] = {}
    for entry in json.loads(PINNED_DENSE.read_text()):
        pool.setdefault(entry["n"], []).append(entry)
    return pool


def _graph_dense(rng: Random, run_dir: str) -> tuple[list, dict]:
    pool = load_pinned()
    bell = references.bell_numbers(max(DENSE_MIX))
    slots = []
    for n, (complete, minus_edge, random_graphs) in DENSE_MIX.items():
        everything = [(u, v) for u in range(n) for v in range(u + 1, n)]
        slots += [("complete", n, everything, bell[n])] * complete
        slots += [("kminus", n, everything[1:], bell[n] - bell[n - 2])] * minus_edge
        entries = sorted(pool[n], key=lambda e: e["p"])
        for u in strata(rng, random_graphs):  # stratified over edge density
            entry = entries[int(u * len(entries))]
            slots.append(("random", n, entry["edges"], int(entry["count"])))
    rng.shuffle(slots)
    queries, files = [], {}
    for i, (kind, n, edges, count) in enumerate(slots):
        path = f"{run_dir}/{i:03d}-{kind}-{n}.txt"
        files[path] = edge_list_text(rng, n, edges)
        queries.append(Query(("graph", "count", "--file", path), ("value", count)))
    return queries, files


# ------------------------------------------------------------------- sequences

def _walk(n: int, length: int) -> range:
    """Neighbouring sizes: one command asked for n, n + 1, ... in a row."""
    return range(n, n + length)


def _distinct_total(rng, u, i):
    return [(("count", "distinct", "--n", str(n)), ("distinct", n, None))
            for n in _walk(700 + int(400 * u), 3)]


def _distinct_k(rng, u, i):
    k = rng.randint(6, 40)
    return [(("count", "distinct", "--n", str(n), "--k", str(k)), ("distinct", n, k))
            for n in _walk(1150 + int(200 * u), 2)]


def _leading(mode):
    def build(rng, u, i):
        return [(("count", "leading", "--mode", mode, "--n", str(n)),
                 ("leading-total", mode == "weak", n))
                for n in _walk(800 + int(500 * u), 2)]
    return build


def _avoid_contain(command):
    def build(rng, u, i):
        k = rng.randint(2, 9)
        return [(("count", command, "--k", str(k), "--n", str(n)), (command, n, k))
                for n in _walk(2000 + int(10000 * u), 3)]
    return build


def _restricted(rng, u, i):
    n0 = 200 + int(300 * u)
    k = n0 // 15
    lower = i % 3
    upper = lower + 20
    return [(("count", "restricted", "--n", str(n), "--k", str(k),
              "--min", str(lower), "--max", str(upper)),
             ("restricted", n, k, lower, upper)) for n in _walk(n0, 2)]


def _format(i: int) -> tuple[tuple[str, ...], bool]:
    """Every third group asks for csv, the rest for plain output."""
    csv = i % 3 == 1
    return (("--format", "csv") if csv else ()), csv


def _triangle(rng, u, i):
    kind = ("pi", "cdistinct")[i % 2]
    flags, csv = _format(i)
    return [(("triangle", "--kind", kind, "--rows", str(rows)) + flags,
             ("triangle", kind == "cdistinct", rows, csv))
            for rows in _walk(400 + int(250 * u), 2)]


def _series(family):
    def build(rng, u, i):
        k = (5, 7, 6)[i % 3]
        flags, csv = _format(i)
        return [(("series", "--family", family, "--k", str(k), "--order", str(order)) + flags,
                 ("series", family, k, order, csv))
                for order in _walk(1500 + int(1500 * u), 2)]
    return build


def _series_distinct(rng, u, i):
    flags, csv = _format(i)
    return [(("series", "--family", "distinct-total", "--order", str(order)) + flags,
             ("distinct-total-series", order, csv))
            for order in _walk(350 + int(250 * u), 2)]


def _complete(rng, u, i):
    return [(("graph", "family", "--name", "complete", "--n", str(n)), ("bell", n))
            for n in _walk(500 + int(600 * u), 3)]


def _ladder(rng, u, i):
    return [(("graph", "family", "--name", "ladder", "--n", str(n)), ("ladder", n))
            for n in _walk(500 + int(4500 * u), 3)]


def _over_limit(rng, u, i):
    """Answers of more than 4300 digits, which the CLI cannot print under
    Python's default integer-to-string limit: a known defect, kept visible."""
    if u < 0.5:
        n = 29_900 + rng.randrange(200)
        return [(("count", "contain", "--k", "4", "--n", str(n)), ("contain", n, 4))]
    n = 7_900 + rng.randrange(200)
    return [(("graph", "family", "--name", "ladder", "--n", str(n)), ("ladder", n))]


# (builder, groups); each group is one walk of neighbouring sizes.
# About 60% of the queries are cheap (avoid, contain, ladder, restricted,
# rational series), so the median falls well inside one smooth cluster of
# costs rather than in the gap between cheap and costly commands. Size ranges
# of commands that share the program's distinct-row cache do not overlap, so
# no seed gets a lucky cache hit.
SEQUENCE_MIX = (
    (_distinct_total, 8), (_distinct_k, 6),
    (_leading("strict"), 10), (_leading("weak"), 10),
    (_avoid_contain("avoid"), 18), (_avoid_contain("contain"), 18),
    (_restricted, 16), (_triangle, 8),
    (_series("fstrict"), 6), (_series("fweak"), 6),
    (_series("avoid"), 6), (_series("contain"), 6),
    (_series_distinct, 6), (_complete, 12), (_ladder, 16),
    (_over_limit, 8),
)


def _sequences(rng: Random, run_dir: str) -> tuple[list, dict]:
    """Groups in a fixed order that spreads every command, and every size
    range of it, evenly over the run. The order is not seeded: the program's
    caches, and the garbage collector's passes over them, grow the same way
    for every seed."""
    keyed = []
    for position, (build, count) in enumerate(SEQUENCE_MIX):
        scrambled = sorted(range(count), key=lambda i: (i * GOLDEN) % 1)
        for i, u in enumerate(strata(rng, count)):
            keyed.append(((scrambled.index(i) + 0.5) / count, position, build(rng, u, i)))
    keyed.sort(key=lambda item: item[:2])
    return [Query(argv, answer) for _, _, group in keyed for argv, answer in group], {}
