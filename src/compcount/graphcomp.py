"""Labeled graphs and exact counting of their compositions.

A composition of a graph is a partition of its vertex set into blocks that
each induce a connected subgraph (the induced subgraph on a block is unique,
so the partition alone identifies the composition). ``count_compositions_graph``
runs a subset dynamic program over bitmask states; ``reduce_and_count``
finds the biconnected blocks of the graph in one linear-time DFS and returns
the product of their counts: C(G1 u G2) = C(G1)C(G2) for disjoint or one-
shared-vertex unions, so a bridge (a two-vertex block) contributes 2 and
only blocks with at least 3 vertices reach the subset DP.
"""

import heapq
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from random import Random
from typing import Iterable, Iterator

from . import exactnum
from .errors import ResourceLimitError

DEFAULT_VERTEX_CAP = 24
ENUMERATION_VERTEX_LIMIT = 10

FAMILIES = ("path", "tree", "complete", "complete_minus_edge", "cycle", "ladder")


class GraphParseError(ValueError):
    """Malformed edge-list input; the message names the offending line."""


@dataclass(frozen=True)
class LabeledGraph:
    """An undirected simple graph on vertices 0..vertex_count-1.

    Edges are stored as a frozenset of (u, v) pairs with u < v; loops and
    out-of-range endpoints are rejected, duplicates collapse.
    """

    vertex_count: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError("vertex count must be nonnegative")
        normalized = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop edge ({u}, {v}) is not allowed")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(
                    f"edge ({u}, {v}) has an endpoint outside 0..{self.vertex_count - 1}"
                )
            normalized.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "edges", frozenset(normalized))

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in sorted(self.edges):
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def neighbor_masks(self) -> list[int]:
        masks = [0] * self.vertex_count
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks


def _is_label(field: str) -> bool:
    """ASCII digits only: str.isdigit alone also admits '²' and '٣'."""
    return field.isascii() and field.isdigit()


def parse_edge_list(text: str) -> LabeledGraph:
    """Parse an edge-list file: the first nonblank line is the vertex count,
    every further nonblank line is "u v"; lines starting with '#' are
    comments. LF and CRLF both work. Duplicate edges collapse silently."""
    vertex_count: int | None = None
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if vertex_count is None:
            if len(fields) != 1 or not _is_label(fields[0]):
                raise GraphParseError(f"line {lineno}: expected the vertex count, got {line!r}")
            vertex_count = int(fields[0])
            continue
        if len(fields) != 2 or not all(_is_label(f) for f in fields):
            raise GraphParseError(f"line {lineno}: expected 'u v', got {line!r}")
        u, v = int(fields[0]), int(fields[1])
        if u == v:
            raise GraphParseError(f"line {lineno}: loop edge {u} {v}")
        if u >= vertex_count or v >= vertex_count:
            raise GraphParseError(
                f"line {lineno}: vertex label out of range 0..{vertex_count - 1}"
            )
        edges.add((min(u, v), max(u, v)))
    if vertex_count is None:
        raise GraphParseError("line 1: missing vertex count")
    return LabeledGraph(vertex_count, frozenset(edges))


def format_edge_list(graph: LabeledGraph) -> str:
    """Render a graph in the edge-list format accepted by parse_edge_list."""
    lines = [str(graph.vertex_count)]
    lines.extend(f"{u} {v}" for u, v in sorted(graph.edges))
    return "\n".join(lines) + "\n"


def _mask_connected(mask: int, neighbor_masks: list[int]) -> bool:
    start = mask & -mask
    reached = start
    frontier = start
    while frontier:
        grown = 0
        bits = frontier
        while bits:
            low = bits & -bits
            grown |= neighbor_masks[low.bit_length() - 1]
            bits ^= low
        frontier = grown & mask & ~reached
        reached |= frontier
    return reached == mask


def _mask_of(vertices: Iterable[int], vertex_count: int) -> int:
    mask = 0
    for v in vertices:
        if not 0 <= v < vertex_count:
            raise ValueError(f"vertex {v} outside 0..{vertex_count - 1}")
        mask |= 1 << v
    return mask


def is_connected(graph: LabeledGraph, subset: Iterable[int]) -> bool:
    """True iff the subgraph induced by the (nonempty) vertex subset is
    connected under the graph's edges."""
    mask = _mask_of(subset, graph.vertex_count)
    if mask == 0:
        raise ValueError("connectivity of the empty subset is undefined")
    return _mask_connected(mask, graph.neighbor_masks())


def _connected_masks_by_min(graph: LabeledGraph) -> list[list[int]]:
    """All connected vertex subsets as bitmasks, grouped by lowest vertex.

    Grown breadth-first from singletons: a set is connected iff it can be
    reached by repeatedly attaching a neighboring vertex.
    """
    n = graph.vertex_count
    nbr = graph.neighbor_masks()
    seen: set[int] = set()
    queue: deque[int] = deque()
    for v in range(n):
        mask = 1 << v
        seen.add(mask)
        queue.append(mask)
    masks: list[int] = []
    while queue:
        mask = queue.popleft()
        masks.append(mask)
        reach = 0
        bits = mask
        while bits:
            low = bits & -bits
            reach |= nbr[low.bit_length() - 1]
            bits ^= low
        growth = reach & ~mask
        while growth:
            low = growth & -growth
            grown = mask | low
            if grown not in seen:
                seen.add(grown)
                queue.append(grown)
            growth ^= low
    by_min: list[list[int]] = [[] for _ in range(n)]
    for mask in masks:
        by_min[(mask & -mask).bit_length() - 1].append(mask)
    for group in by_min:
        group.sort()
    return by_min


def count_compositions_graph(graph: LabeledGraph, cap: int | None = None) -> int:
    """Number of partitions of the vertex set into connected blocks.

    Subset DP: ways(S) sums, over connected blocks T inside S that contain
    S's lowest vertex, the value ways(S minus T), with ways(empty) = 1.
    The empty graph counts 1. Graphs above the vertex cap raise a resource
    error (state space is 2^n); reduce_and_count handles larger graphs whose
    biconnected blocks each fit under the cap, since it applies the cap to
    each block on its own.
    """
    cap = DEFAULT_VERTEX_CAP if cap is None else cap
    n = graph.vertex_count
    if n > cap:
        raise ResourceLimitError(
            f"{n} vertices exceed the subset-DP cap of {cap}; "
            "reduce_and_count can split the graph first"
        )
    if n == 0:
        return 1
    by_min = _connected_masks_by_min(graph)
    ways = [0] * (1 << n)
    ways[0] = 1
    for state in range(1, 1 << n):
        lowest = (state & -state).bit_length() - 1
        acc = 0
        for block in by_min[lowest]:
            if block & state == block:
                acc += ways[state ^ block]
        ways[state] = acc
    return ways[-1]


def _set_partitions_masks(n: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return

    def rec(v: int, blocks: list[int]) -> Iterator[tuple[int, ...]]:
        if v == n:
            yield tuple(blocks)
            return
        bit = 1 << v
        for i in range(len(blocks)):
            blocks[i] |= bit
            yield from rec(v + 1, blocks)
            blocks[i] ^= bit
        blocks.append(bit)
        yield from rec(v + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def _mask_vertices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def enumerate_graph_compositions(graph: LabeledGraph) -> list[tuple[tuple[int, ...], ...]]:
    """Every composition of the graph, once each, as sorted tuples of sorted
    vertex blocks. Filters all set partitions of the vertex set on the
    every-block-connected predicate, so it is the oracle for the DP and only
    works at small scale."""
    n = graph.vertex_count
    if n > ENUMERATION_VERTEX_LIMIT:
        raise ResourceLimitError(
            f"composition enumeration is capped at {ENUMERATION_VERTEX_LIMIT} vertices, got {n}"
        )
    nbr = graph.neighbor_masks()
    results = []
    for blocks in _set_partitions_masks(n):
        if all(_mask_connected(block, nbr) for block in blocks):
            results.append(tuple(sorted(_mask_vertices(block) for block in blocks)))
    results.sort()
    return results


def _check_family(family: str, n: int) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if family in ("path", "tree", "complete"):
        if n < 0:
            raise ValueError(f"{family} needs n >= 0")
    elif family == "complete_minus_edge":
        if n < 2:
            raise ValueError("complete_minus_edge needs n >= 2")
    elif family == "cycle":
        if n < 3:
            raise ValueError("cycle needs n >= 3")
    elif family == "ladder":
        if n < 1:
            raise ValueError("ladder needs n >= 1")


def family_count(family: str, n: int) -> int:
    """Composition count for a named graph family.

    path/tree: 2^(n-1) (1 at n = 0); complete: the Bell number;
    complete_minus_edge: Bell(n) - Bell(n-2); cycle: 2^n - n;
    ladder (n rungs): 2, 12, then 6 * previous + one before that.
    """
    _check_family(family, n)
    if family in ("path", "tree"):
        return 1 if n == 0 else 1 << (n - 1)
    if family == "complete":
        return exactnum.bell(n)
    if family == "complete_minus_edge":
        return exactnum.bell(n) - exactnum.bell(n - 2)
    if family == "cycle":
        return (1 << n) - n
    older, newer = 2, 12
    if n == 1:
        return older
    for _ in range(n - 2):
        older, newer = newer, 6 * newer + older
    return newer


def build_family(family: str, n: int) -> LabeledGraph:
    """Construct an explicit labeled member of the family.

    The tree is heap-shaped (vertex i hangs under (i-1)//2), deliberately not
    a path. Ladder rung i occupies vertices 2i and 2i+1, giving 2n vertices
    and 3n-2 edges.
    """
    _check_family(family, n)
    if family == "path":
        edges = {(i, i + 1) for i in range(n - 1)}
    elif family == "tree":
        edges = {((i - 1) // 2, i) for i in range(1, n)}
    elif family == "complete":
        edges = set(combinations(range(n), 2))
    elif family == "complete_minus_edge":
        edges = set(combinations(range(n), 2)) - {(0, 1)}
    elif family == "cycle":
        edges = {(i, (i + 1) % n) for i in range(n)}
    else:
        edges = {(2 * i, 2 * i + 1) for i in range(n)}
        edges |= {(2 * i, 2 * i + 2) for i in range(n - 1)}
        edges |= {(2 * i + 1, 2 * i + 3) for i in range(n - 1)}
        return LabeledGraph(2 * n, frozenset(edges))
    return LabeledGraph(n, frozenset(edges))


def _pow_sqrt10(a: int, b: int, exponent: int) -> tuple[int, int]:
    """(a + b*sqrt(10))^exponent as an integer pair (x, y) meaning x + y*sqrt(10)."""
    x, y = 1, 0
    bx, by = a, b
    e = exponent
    while e:
        if e & 1:
            x, y = x * bx + 10 * y * by, x * by + y * bx
        bx, by = bx * bx + 10 * by * by, 2 * bx * by
        e >>= 1
    return x, y


def ladder_binet(n: int) -> int:
    """Closed form for the n-rung ladder count, evaluated exactly.

    The rung recurrence has characteristic equation x^2 = 6x + 1 with roots
    3 +- sqrt(10); fitting the starting counts 2 and 12 gives
    ((3+sqrt(10))^n - (3-sqrt(10))^n) / sqrt(10). The difference of conjugate
    powers must be a pure sqrt(10) multiple, which is checked, so the final
    division is exact.
    """
    if n < 1:
        raise ValueError("ladder needs n >= 1")
    xp, yp = _pow_sqrt10(3, 1, n)
    xm, ym = _pow_sqrt10(3, -1, n)
    if xp != xm:
        raise ArithmeticError("conjugate powers must share their rational part")
    return yp - ym


def _blocks(graph: LabeledGraph) -> Iterator[list[tuple[int, int]]]:
    """Edge lists of the biconnected blocks, by one iterative lowlink DFS
    (Hopcroft and Tarjan) that keeps the edges of the open blocks on a stack.

    A bridge comes out as a one-edge block; isolated vertices yield nothing.
    """
    n = graph.vertex_count
    adj = graph.adjacency()
    pre = [-1] * n
    low = [0] * n
    edge_stack: list[tuple[int, int]] = []
    counter = 0
    for root in range(n):
        if pre[root] != -1:
            continue
        pre[root] = low[root] = counter
        counter += 1
        # frames: (vertex, DFS parent, neighbor iterator, edge-stack length
        # before the tree edge into the vertex was pushed)
        stack = [(root, -1, iter(adj[root]), 0)]
        while stack:
            v, parent, neighbors, mark = stack[-1]
            for w in neighbors:
                if pre[w] == -1:
                    pre[w] = low[w] = counter
                    counter += 1
                    stack.append((w, v, iter(adj[w]), len(edge_stack)))
                    edge_stack.append((v, w))
                    break
                if w != parent and pre[w] < pre[v]:
                    edge_stack.append((v, w))
                    if pre[w] < low[v]:
                        low[v] = pre[w]
            else:
                stack.pop()
                if parent == -1:
                    continue
                if low[v] < low[parent]:
                    low[parent] = low[v]
                if low[v] >= pre[parent]:
                    yield edge_stack[mark:]
                    del edge_stack[mark:]


def reduce_and_count(graph: LabeledGraph, cap: int | None = None) -> int:
    """Count compositions as a product over the biconnected blocks.

    C(G) is the product of C(B) over the blocks B of every component (the
    cut-vertex rule); a bridge is a K2 block and contributes 2. Each block
    with at least 3 vertices goes to the subset DP, relabelled in vertex
    order, so the vertex cap applies to each block on its own.
    """
    result = 1
    for block in _blocks(graph):
        if len(block) == 1:
            result *= 2
            continue
        order = sorted({v for edge in block for v in edge})
        index = {v: i for i, v in enumerate(order)}
        relabelled = LabeledGraph(len(order), frozenset((index[u], index[v]) for u, v in block))
        result *= count_compositions_graph(relabelled, cap)
    return result


def _tree_edges_from_sequence(seq: list[int], n: int) -> set[tuple[int, int]]:
    """Decode a length n-2 vertex sequence into the edge set of the
    corresponding labeled tree."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = set()
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.add((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.add((min(u, w), max(u, w)))
    return edges


def random_tree(rng: Random, n: int) -> LabeledGraph:
    """A uniformly random labeled tree on n vertices."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n <= 1:
        return LabeledGraph(n)
    if n == 2:
        return LabeledGraph(2, frozenset({(0, 1)}))
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return LabeledGraph(n, frozenset(_tree_edges_from_sequence(seq, n)))


def random_graph(rng: Random, n: int, edge_probability: float) -> LabeledGraph:
    """Each of the n*(n-1)/2 possible edges appears independently."""
    edges = {
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < edge_probability
    }
    return LabeledGraph(n, frozenset(edges))


def random_connected_graph(rng: Random, n: int, extra_edge_probability: float = 0.0) -> LabeledGraph:
    """A random tree plus independent extra edges, so always connected."""
    edges = set(random_tree(rng, n).edges)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra_edge_probability:
                edges.add((u, v))
    return LabeledGraph(n, frozenset(edges))
