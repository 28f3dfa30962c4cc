"""Labeled graphs and exact counting of their compositions.

A composition of a graph is a partition of its vertex set into blocks that
each induce a connected subgraph (the induced subgraph on a block is unique,
so the partition alone identifies the composition). Two exact counters:
``count_compositions_graph`` runs a subset dynamic program over the 2^h
bitmask states of the h vertices that are not universal (adjacent to all
others), one ranked subset convolution per lowest vertex but the last in
about h 2^h steps, and adds the universal vertices by a signed Bell sum, so
it suits small dense graphs and K_n costs one Bell number (the first step of
join decomposition: Gallai 1967; Corneil, Perl and Stewart 1985);
``count_compositions_frontier`` runs a frontier DP along a vertex order,
whose states follow the frontier width instead, and suits thin graphs of
any size; the successors of a state in a step of a given shape come from a
bounded memo (_successors) that every block shares. ``reduce_and_count``
finds the biconnected blocks in one linear-time DFS, which labels the
vertices of each in discovery order, and returns the product of their counts:
C(G1 u G2) = C(G1)C(G2) for disjoint or one-shared-vertex unions, so a
bridge (a two-vertex block) contributes 2. Each block of 3 or more vertices
goes to _count_block, the one place where a block's count is found, which
returns it with the route it took: the block memo, under those labels or
under labels ordered by colour refinement, where a hit runs no counter;
else, priced under the shared work budget (errors.check_work), series and
parallel reductions (_series_parallel), which count a block with no K_4
minor (a cycle, ladder, fan or 2-tree), where they are priced lowest, or
the subset or the frontier DP, whichever is priced lower."""

import heapq
import math
import re
import sys
from collections import Counter
from collections.abc import Iterable, Iterator
from functools import reduce
from itertools import chain, combinations, compress, islice, repeat
from operator import add, and_, lshift, mul, or_, rshift, sub, xor
from random import Random

from . import FAMILIES, exactnum
from .errors import (KEPT, MEMORY_BUDGET, Frozen, ResourceLimitError, check_work, karatsuba, memo, pricing,
                     word_steps)

# The largest graph whose set partitions perfbench/pin_dense.py lists to check
# a pinned count; nothing here reads it, as check_work prices each listing.
ENUMERATION_VERTEX_LIMIT = 10
# The subset DP sums a cube of at most this many vertices above the lowest
# vertex state by state, and a larger one by one ranked subset convolution.
DIRECT_CUBE_BITS = 7
# The ranked convolution forms its product this many entries at a time, so
# it holds two lists of the packed numbers of its cube, not three.
PRODUCT_CHUNK = 1024

# Each named family's smallest size, in the order of FAMILIES (rungs for the ladder).
FAMILY_MIN_SIZE = dict(zip(FAMILIES, (0, 0, 0, 2, 3, 1), strict=True))


class GraphParseError(ValueError):
    """Malformed edge-list input; the message names the offending line."""


class LabeledGraph(Frozen):
    """An undirected simple graph on vertices 0..vertex_count-1.

    Edges are stored as a frozenset of (u, v) pairs with u < v; loops and
    out-of-range endpoints are rejected, duplicates collapse.
    """

    __slots__ = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()):
        if vertex_count < 0:
            raise ValueError("vertex count must be nonnegative")
        normalized = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop edge ({u}, {v}) is not allowed")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(
                    f"edge ({u}, {v}) has an endpoint outside 0..{vertex_count - 1}"
                )
            normalized.add((u, v) if u < v else (v, u))
        super().__init__(vertex_count, frozenset(normalized))

    def adjacency(self) -> list[list[int]]:
        return _adjacency(self.vertex_count, self.edges)

    def neighbor_masks(self) -> list[int]:
        masks = [0] * self.vertex_count
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks


def _adjacency(n: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Neighbour lists of n vertices, each in increasing order, whatever the
    order of the edges: the frontier order breaks its ties on this order."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for neighbours in adj:
        neighbours.sort()
    return adj


def _is_label(field: str) -> bool:
    """ASCII digits only: str.isdigit alone also admits '²' and '٣'."""
    return field.isascii() and field.isdigit()


# The most digits of a vertex count, leading zeros aside: a larger count is
# past a float's range, where no cost estimate can hold it, and refused.
VERTEX_COUNT_MAX_DIGITS = sys.float_info.max_10_exp

# A plain edge list: after blank lines, the vertex count alone on its line in
# at most VERTEX_COUNT_MAX_DIGITS digits, then "u v" lines or blank lines,
# padded with spaces and tabs, with LF or CRLF endings. Past the count,
# _NOT_PLAIN_CHARACTER and _NOT_PLAIN_LINE find where a text is not plain.
# None repeats a group once a line, so none holds a backtracking stack that
# grows with the lines.
_PLAIN_HEADER = re.compile(rf"[ \t\r\n]*\d{{1,{VERTEX_COUNT_MAX_DIGITS}}}[ \t]*(?=\r?\n|\Z)", re.ASCII)
_NOT_PLAIN_CHARACTER = re.compile(r"[^\d \t\r\n]", re.ASCII)
_NOT_PLAIN_LINE = re.compile(r"\n(?![ \t]*(?:\d+[ \t]+\d+[ \t]*)?\r?(?:\n|\Z))", re.ASCII)


def parse_edge_list(text: str) -> LabeledGraph:
    """Parse an edge-list file: the first nonblank line is the vertex count,
    every further nonblank line is "u v"; lines starting with '#' are
    comments. LF and CRLF both work. Duplicate edges collapse silently.

    A plain edge list is read in one split by _parse_plain. Anything else
    goes to the line-by-line parser, which names the line of the first error."""
    return _parse_plain(text) or _parse_edge_lines(text)


def _parse_plain(text: str) -> LabeledGraph | None:
    """The graph of a plain edge list with no loop and no label out of range,
    from one map of int over its split, or None for any other text."""
    header = _PLAIN_HEADER.match(text)
    if not header or _NOT_PLAIN_CHARACTER.search(text, header.end()) \
            or _NOT_PLAIN_LINE.search(text, header.end()):
        return None
    try:
        vertex_count, *labels = map(int, text.split())
        pairs = iter(labels)
        return LabeledGraph(vertex_count, zip(pairs, pairs))
    except ValueError:  # a label past int's digit limit, a loop or a label out of range
        return None


def _parse_edge_lines(text: str) -> LabeledGraph:
    """parse_edge_list line by line, on any text."""
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
            count = fields[0].lstrip("0") or "0"
            if len(count) > VERTEX_COUNT_MAX_DIGITS:
                raise ResourceLimitError(
                    f"line {lineno}: a vertex count of {len(count)} digits is too large to price")
            vertex_count, digits = int(count), len(count)
            continue
        if len(fields) != 2 or not all(_is_label(f) for f in fields):
            raise GraphParseError(f"line {lineno}: expected 'u v', got {line!r}")
        # compared as digits first: int() refuses a label of over 4300 of them
        u, v = (f.lstrip("0") or "0" for f in fields)
        if u == v:
            raise GraphParseError(f"line {lineno}: loop edge {u} {v}")
        if max(len(u), len(v)) > digits or max(int(u), int(v)) >= vertex_count:
            raise GraphParseError(
                f"line {lineno}: vertex label out of range 0..{vertex_count - 1}"
            )
        u, v = int(u), int(v)
        edges.add((min(u, v), max(u, v)))
    if vertex_count is None:
        raise GraphParseError("line 1: missing vertex count")
    return LabeledGraph(vertex_count, frozenset(edges))


# parse_edge_list holds up to 36 heap bytes and takes up to 0.25 us per input
# character (1-16 MB files of distinct edges between 4-digit labels, the
# densest shape at that size; CPython 3.11, 2-vCPU x86-64 guest). Its split
# of a plain file holds less: 30.9-31.0 bytes a character against the line
# parser's 33.4-33.6, in 0.24-0.30 us against 0.40-0.48 in the same runs.
EDGE_LIST_MAX_CHARS = int(MEMORY_BUDGET / 36)


def read_edge_list(handle) -> LabeledGraph:
    """Parse the edge list in an open text file, reading at most one
    character past EDGE_LIST_MAX_CHARS, so a longer file or pipe is refused
    unparsed. A character is priced as 3/4 of a held number of no bits (36
    bytes) and 2 operations on it (52 steps)."""
    text = handle.read(EDGE_LIST_MAX_CHARS + 1)
    check_work(f"an edge list of more than {EDGE_LIST_MAX_CHARS} characters", 2 * len(text), 0,
               held=0.75 * len(text), printed=0)
    return parse_edge_list(text)


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


def is_connected(graph: LabeledGraph, subset: Iterable[int]) -> bool:
    """True iff the subgraph induced by the (nonempty) vertex subset is
    connected under the graph's edges: a search from one of its vertices
    over graph.adjacency() that steps only inside it. It is priced as the
    block split of reduce_and_count is, 20 operations and 4 numbers held a
    vertex and edge of the graph, about 2.1 us and 192 bytes: on paths,
    trees, K_300 and G(2000, .01) of up to 10^6 vertices it takes 0.2-1.3 us
    and 17-117 traced bytes (CPython 3.11, 2-vCPU x86-64 guest)."""
    size = graph.vertex_count + len(graph.edges)
    check_work(f"is_connected on {graph.vertex_count} vertices", 20 * size, 0, held=4 * size, printed=0)
    for v in (inside := set(subset)):
        if v not in range(graph.vertex_count):
            raise ValueError(f"vertex {v} outside 0..{graph.vertex_count - 1}")
    if not inside:
        raise ValueError("connectivity of the empty subset is undefined")
    adjacency, stack = graph.adjacency(), [inside.pop()]
    while stack:
        found = inside.intersection(adjacency[stack.pop()])
        inside -= found
        stack.extend(found)
    return not inside


def count_compositions_graph(graph: LabeledGraph) -> int:
    """Number of partitions of the vertex set into connected blocks.

    With u universal vertices (adjacent to all others) and the h others W,
    only a block inside W can be disconnected. Inclusion-exclusion over the
    families F of disjoint disconnected sets gives C(G) = sum over k of
    g[k] Bell(n - k), g[k] the sum of (-1)^|F| over those covering k vertices
    (K_n - e: g = [1, 0, -1]); on the sets Y inside W it gives c[j] = sum over
    |Y| = j of C(G[Y]) = sum over k of g[k] C(h - k, j - k) Bell(j - k), which
    is solved forward for g. One subset DP on G[W] gives every C(G[Y]) in 2^h
    states and about h 2^h steps, so K_n costs one Bell number. With u = 0 the
    count is its last entry alone, summed over the connected sets through
    vertex 0 in place of the largest cube's convolution, about half the
    transform steps. The work budget refuses it past 19 vertices that are not
    universal, priced on the degrees before any list of n entries is built,
    and the Bell numbers by exactnum.bell_numbers; reduce_and_count splits
    a graph into biconnected blocks and hands here those the subset DP
    counts for less than the frontier DP."""
    _price_subset_dp(_not_universal(graph.vertex_count, graph.edges))
    return _count_subset(graph.adjacency())


def _not_universal(n: int, edges: Iterable[tuple[int, int]]) -> int:
    """How many of n vertices are not adjacent to all others, by degrees counted on the edges."""
    return n - sum(d == n - 1 for d in Counter(chain.from_iterable(edges)).values()) if n > 1 else 0


def _count_subset(adj: list[list[int]]) -> int:
    """count_compositions_graph, unpriced, on the neighbour lists of a graph:
    the subset DP on the masks of its vertices with lists shorter than n - 1."""
    n = len(adj)
    rest = [v for v, neighbours in enumerate(adj) if len(neighbours) < n - 1]
    h = len(rest)
    bit = {v: 1 << i for i, v in enumerate(rest)}  # a universal neighbour adds none
    nbr = [sum(bit.get(w, 0) for w in adj[v]) for v in rest]
    if h == n:
        return _subset_ways(nbr, n, True)[-1]
    bells = exactnum.bell_numbers(n)
    by_size = [0] * (h + 1)
    for subset, ways in enumerate(_subset_ways(nbr, h)):
        by_size[subset.bit_count()] += ways
    g: list[int] = []  # solved forward from by_size[j] = sum of g[k] C(h - k, j - k) Bell(j - k)
    for j, total in enumerate(by_size):
        g.append(total - sum(gk * math.comb(h - k, j - k) * bells[j - k] for k, gk in enumerate(g)))
    return sum(gk * bells[n - k] for k, gk in enumerate(g))


def _subset_ways(nbr: list[int], n: int, count_only: bool = False) -> list[int]:
    """The subset DP: ways[S] counts the compositions of G[S] for every
    vertex set S, given the neighbour masks of n vertices; over all n it is
    the reference that the tests and verify compare against.

    The block through the lowest vertex v of S is {v} plus some Z inside the
    rest Y of S, and the other blocks compose Y minus Z, which lies above v,
    so ways({v} + Y) = sum over Z inside Y of connected({v} + Z) ways(Y - Z),
    with the table of connected sets built first, for all of them at once, by
    _connected_sets. The states go by lowest vertex v = n - 1 down to 0, from
    ways(empty) = 1. If the cube of the m = n - 1 - v vertices above v has at
    most DIRECT_CUBE_BITS of them, each S is summed in turn over the 2^|Y|
    submasks of Y (3^m steps in all); a larger cube is counted all at once by
    _ranked_convolution on strided slices of the two tables, in about m 2^m
    transform steps.

    With count_only, the caller reads only ways[-1], the whole vertex set F,
    and the other sets through vertex 0 are left at 0: ways(F) is one sum of
    ways(F minus T) over the connected sets T through vertex 0, a lookup and
    an add each, in place of the largest cube's convolution (about half of
    all transform steps). Unpriced: count_compositions_graph prices it, by
    _subset_cost."""
    ways = [0] * (1 << n)
    ways[0] = 1
    connected = _connected_sets(nbr)
    top = n - 2 if count_only else n - 1  # the largest cube that may be convolved
    popcounts = [0]  # of its sets, when it is
    for _ in range(top if top > DIRECT_CUBE_BITS else 0):
        popcounts += [c + 1 for c in popcounts]
    for v in range(n - 1, -1, -1):
        low = 1 << v
        if count_only and v == 0:
            # F minus the odd state 2k + 1 is the even index F - 1 - 2k
            ways[-1] = sum(compress(islice(reversed(ways), 1, None, 2), connected[1::2]))
        elif n - 1 - v > DIRECT_CUBE_BITS:
            ways[low::low << 1] = _ranked_convolution(connected[low::low << 1],
                                                      ways[0::low << 1], popcounts)
        else:
            for state in range(low, 1 << n, low << 1):
                # each block T through low is state ^ other for a submask other of rest
                rest = state ^ low
                acc = connected[state]  # T = state
                other = rest
                while other:
                    if connected[state ^ other]:
                        acc += ways[other]
                    other = (other - 1) & rest
                ways[state] = acc
    return ways


_BITS_TO_BYTES = bytes.maketrans(b"01", b"\0\1")


def _connected_sets(nbr: list[int]) -> bytes:
    """connected[S] = 1 where the vertex set S induces a connected subgraph,
    for all 2^n sets of the n vertices of these neighbour masks at once, with
    ints as bitsets over the sets, bit S for the set S. holding[u], the sets
    that hold u, is a run of 2^u sets without u and 2^u with it, doubled out
    to 2^n sets by shifts. reach[u], the sets in which u is reached from
    their lowest vertex, starts as the sets whose lowest vertex is u and
    takes in, vertex by vertex in a round, the sets that hold u and reach a
    neighbour of u, until a round adds nothing: 3-6 rounds with that last one
    on G(10-18, .6), n on the path 0, n - 1, ..., 1. A set is connected where
    it is not empty and reaches every vertex it holds."""
    n = len(nbr)
    holding, reach, below = [], [], 0
    for u in range(n):
        sets, width = (1 << (1 << u)) - 1 << (1 << u), 2 << u
        while width < 1 << n:
            sets |= sets << width
            width <<= 1
        holding.append(sets)
        reach.append(sets & ~below)
        below |= sets
    neighbours = [[w for w in range(n) if mask >> w & 1] for mask in nbr]
    grown = True
    while grown:
        grown = False
        for u, sets in enumerate(holding):
            more = reach[u] | sets & reduce(or_, [reach[w] for w in neighbours[u]], 0)
            if more != reach[u]:
                reach[u], grown = more, True
    apart = reduce(or_, map(xor, holding, reach), 1)  # the empty set, and sets missing a vertex they hold
    return format((1 << (1 << n)) - 1 ^ apart, f"0{1 << n}b")[::-1].encode().translate(_BITS_TO_BYTES)


def _price_subset_dp(n: int) -> None:
    """Refuse the subset DP on n vertices where _subset_cost puts it over the
    work budget. Neither block counter prices a decimal conversion: a block
    count is a factor of the count printed."""
    operations, bits, held = _subset_cost(n)
    check_work(f"the subset DP over 2^{n} vertex sets", operations, bits, held=held, printed=0)


def _ranked_convolution(blocks: bytes, rest: list[int], popcounts: list[int]) -> Iterator[int]:
    """f(Y) = sum over Z inside Y of blocks[Z] rest[Y minus Z], for the 2^m
    sets Y of an m-bit cube, as a ranked subset convolution (Björklund,
    Husfeldt, Kaski and Koivisto, STOC 2007) in O(m 2^m) operations.

    Each entry is shifted by w|Z| bits, so one int holds its rank polynomial
    (Kronecker substitution) and one add, product or subtraction acts on all
    ranks at once. Both sides are zeta-transformed, multiplied pointwise and
    cut to ranks 0..m; the Möbius transform then gives, in rank |Y| of Y, the
    sum over disjoint pairs. With blocks 0 or 1 and every rest entry at most
    M, a rank-k coefficient counts at most C(2m, k) pairs of sets, so it is at
    most M C(2m, m) < 2^w for w = bitlen(C(2m, m)) + bitlen(M), and every
    partial transform is a sum of such terms, so no field overflows or borrows
    and the packed arithmetic is exact. Here M is at most Bell(m), rest being
    subset-DP counts of m vertices, so w <= 2m + bitlen(Bell(m))."""
    m = len(rest).bit_length() - 1
    width = math.comb(2 * m, m).bit_length() + max(rest).bit_length()
    shifts = [width * c for c in popcounts[:len(rest)]]
    packed_blocks = list(map(lshift, blocks, shifts))
    packed_rest = list(map(lshift, rest, shifts))
    _zeta(packed_blocks, add)
    _zeta(packed_rest, add)
    ranks = (1 << width * (m + 1)) - 1
    # the product takes packed_rest's place a chunk at a time, and the packed
    # blocks behind it are let go: two lists of the cube are held, not three
    step = min(len(rest), PRODUCT_CHUNK)
    zeros = bytes(step)
    for start in range(0, len(rest), step):
        chunk = slice(start, start + step)
        packed_rest[chunk] = map(and_, map(mul, packed_blocks[chunk], packed_rest[chunk]), repeat(ranks))
        packed_blocks[chunk] = zeros
    del packed_blocks
    _zeta(packed_rest, sub)
    return map(and_, map(rshift, packed_rest, shifts), repeat((1 << width) - 1))


def _zeta(values: list[int], op) -> None:
    """values[S] = op(values[S], values[S without j]) in place for each bit j
    of the 2^m indices, one bit at a time: with add the sum over subsets (the
    zeta transform), with sub its inverse (the Möbius transform). Each bit
    takes whichever is fewer, strided slices or contiguous blocks."""
    size = len(values)
    step = 1
    while step < size:
        span = step << 1
        if step * span < size:
            for r in range(step):
                values[step + r::span] = map(op, values[step + r::span], values[r::span])
        else:
            for base in range(0, size, span):
                values[base + step:base + span] = map(op, values[base + step:base + span],
                                                      values[base:base + step])
        step = span


def _far_vertex(adj: list[list[int]], start: int) -> int:
    """A lowest-degree vertex of the last breadth-first level from start."""
    seen = {start}
    level = [start]
    while True:
        below = []
        for v in level:
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    below.append(w)
        if not below:
            return min(level, key=lambda v: len(adj[v]))
        level = below


def _frontier_order(adj: list[list[int]]) -> tuple[list[int], list[int]]:
    """A vertex order that keeps the frontier small, with the frontier size
    before each of its steps.

    The frontier is the set of processed vertices that still have an
    unprocessed neighbour. Each component starts at a pseudo-peripheral
    vertex (the far end of two breadth-first sweeps); each step then takes the
    vertex whose processing grows the frontier least, and among those the one
    with the most processed neighbours. Keys sit in a lazy heap and each edge
    changes at most three of them, so the order costs O(m log n).
    """
    n = len(adj)
    done = [False] * n
    unprocessed = [len(neighbours) for neighbours in adj]
    processed = [0] * n
    closing = [0] * n  # processed neighbours whose one unprocessed neighbour is v

    def key(v: int) -> tuple[int, int]:
        return (1 if unprocessed[v] else 0) - closing[v], -processed[v]

    order: list[int] = []
    widths: list[int] = []
    size = 0
    tick = 0
    for root in range(n):
        if done[root]:
            continue
        start = _far_vertex(adj, _far_vertex(adj, root))
        heap = [(key(start), tick, start)]
        while heap:
            stored, _, v = heapq.heappop(heap)
            if done[v] or stored != key(v):
                continue
            done[v] = True
            order.append(v)
            widths.append(size)
            size += stored[0]
            last_links = [v] if unprocessed[v] == 1 else []
            for w in adj[v]:
                unprocessed[w] -= 1
                if not done[w]:
                    processed[w] += 1
                    tick += 1
                    heapq.heappush(heap, (key(w), tick, w))
                elif unprocessed[w] == 1:
                    last_links.append(w)
            for u in last_links:
                z = next(x for x in adj[u] if not done[x])
                closing[z] += 1
                tick += 1
                heapq.heappush(heap, (key(z), tick, z))
    return order, widths


def count_compositions_frontier(graph: LabeledGraph) -> int:
    """Number of partitions of the vertex set into connected blocks, by a
    frontier (transfer-matrix) DP in the style of frontier-based search.

    Vertices are processed in a min-frontier order. A state gives every
    frontier vertex its block and its connected component inside that block,
    both relabelled by first appearance, and maps to the number of partial
    compositions that reach it. The next vertex opens a block or joins one,
    merging the components of that block it is adjacent to. A component
    whose vertices have all left the frontier can grow no more, so it must be
    all of its block: a state is dropped when such a component leaves while
    another frontier vertex of its block remains, or when two components of
    one block leave together. Work follows the number of states, at most the
    two-level Bell number of the frontier width, not 2^n. A step's
    transitions depend only on its shape in frontier positions, so the
    successors of each (shape, state) pair come from the memo _successors.
    Priced at one step a vertex before the adjacency.
    """
    _price_frontier(graph.vertex_count, len(graph.edges))
    adj = graph.adjacency()
    return _count_frontier(adj, *_frontier_order(adj))


def _count_frontier(adj: list[list[int]], order: list[int], widths: list[int]) -> int:
    """The frontier DP of count_compositions_frontier along the given order,
    priced by _price_frontier on the frontier widths of the order. Each step
    is described by its shape, in frontier positions, and each state is
    advanced by the successors that _successors gives for that shape."""
    _price_frontier(len(adj), sum(map(len, adj)) // 2, widths)
    rank = [0] * len(adj)
    for i, v in enumerate(order):
        rank[v] = i
    later = [sum(1 for w in neighbours if rank[w] > rank[v]) for v, neighbours in enumerate(adj)]
    frontier: list[int] = []
    states = {(): 1}  # block labels, then component labels, per frontier vertex
    for v in order:
        width = len(frontier)
        where = {u: i for i, u in enumerate(frontier)}
        hits = []
        for u in adj[v]:
            if rank[u] < rank[v]:
                hits.append(where[u])
                later[u] -= 1
        keep = [i for i, u in enumerate(frontier) if later[u]]
        gone = [i for i, u in enumerate(frontier) if not later[u]]
        frontier = [frontier[i] for i in keep]
        stays = later[v] > 0
        if stays:
            keep.append(width)
            frontier.append(v)
        else:
            gone.append(width)
        shape = (width, tuple(sorted(hits)), tuple(keep), tuple(gone), stays)
        advanced: dict[tuple, int] = {}
        get = advanced.get
        for state, ways in states.items():
            for key in _successors(shape, state):
                advanced[key] = get(key, 0) + ways
        states = advanced
    return states[()]


# The most (step shape, state) pairs whose successors the frontier DP keeps.
# Long blocks of few step shapes hit it on most steps: without it the
# frontier DP took 7 times as long on a 3 x 200 grid, 3-8 times on a
# 2000-cycle, 4.5 times on a 4 x 30 grid and 2-3 times on a 5 x 20 grid
# than with it cleared before the run (two runs). On a wide block almost
# every pair is new (a block of width 8 ran 15% faster without it).
FRONTIER_MEMO_ENTRIES = 4096


@memo(FRONTIER_MEMO_ENTRIES)
def _successors(shape: tuple, state: tuple) -> tuple[tuple, ...]:
    """The states that one frontier DP state leads to in one step, once for
    each way, given the step's shape: the frontier width, the positions the
    new vertex is adjacent to, the positions (the new vertex at position
    width) that stay on the frontier and those that leave, and whether the
    new vertex stays. The new vertex opens a block or joins one, merging the
    components of that block it is adjacent to; a successor is dropped where
    a component that leaves is not all of its block."""
    width, hits, keep, gone, stays = shape
    blocks = state[:width]
    comps = state[width:]
    opened = max(blocks) + 1 if width else 0
    successors = []
    for b in range(opened + 1):  # b == opened: the vertex opens a new block
        merged = {comps[i] for i in hits if blocks[i] == b}
        if merged:
            vc = min(merged)
            cs = [vc if c in merged else c for c in comps]
        elif stays or b == opened:
            vc = width  # a fresh component label
            cs = list(comps)
        else:
            continue  # the vertex leaves without touching block b
        cs.append(vc)
        bs = blocks + (b,)
        if gone:
            kept = {cs[i] for i in keep}
            kept_blocks = {bs[i] for i in keep}
            closed: dict[int, int] = {}
            if any(cs[i] not in kept
                   and (bs[i] in kept_blocks or closed.setdefault(bs[i], cs[i]) != cs[i])
                   for i in gone):
                continue
        block_ids: dict[int, int] = {}
        comp_ids: dict[int, int] = {}
        successors.append(tuple([block_ids.setdefault(bs[i], len(block_ids)) for i in keep]
                                + [comp_ids.setdefault(cs[i], len(comp_ids)) for i in keep]))
    return tuple(successors)


def _set_partitions_masks(n: int) -> Iterator[tuple[int, ...]]:
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
    works at small scale. It is priced before the first partition, for K_n,
    where every partition is kept: Bell(n) partitions, 9n operations and n
    held numbers each (fit to 7.9-11.6 us and 298-389 traced bytes a
    partition at n = 9-11; CPython 3.11, 2-vCPU x86-64 guest), so 11
    vertices are listed and 12 refused. The price is first checked at
    2^(n-1) partitions, the interval partitions of a path, which Bell(n) is
    at least, so a listing refused there is refused before Bell(n) is found."""
    n, what = graph.vertex_count, f"the set partitions of {graph.vertex_count} vertices"

    def check(count):
        check_work(what, count * 9 * n, 0, held=count * n, printed=0)

    with pricing(what):
        check(2.0 ** (n - 1))
    check(exactnum.bell(n))
    nbr = graph.neighbor_masks()
    return sorted(tuple(sorted(map(_mask_vertices, blocks))) for blocks in _set_partitions_masks(n)
                  if all(_mask_connected(block, nbr) for block in blocks))


def _check_family(family: str, n: int) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if n < FAMILY_MIN_SIZE[family]:
        raise ValueError(f"{family} needs n >= {FAMILY_MIN_SIZE[family]}")


def family_count(family: str, n: int) -> int:
    """Composition count for a named graph family.

    path/tree: 2^(n-1) (1 at n = 0); complete: the Bell number;
    complete_minus_edge: Bell(n) - Bell(n-2); cycle: 2^n - n;
    ladder (n rungs): ladder_binet(n), the closed form of the rung recurrence.
    A power of two costs one shift of n bits, and the quadratic decimal
    conversion of its answer more.
    """
    _check_family(family, n)
    if family == "complete":
        return exactnum.bell(n)
    if family == "complete_minus_edge":
        return exactnum.bell(n) - exactnum.bell(n - 2)
    if family == "ladder":
        return ladder_binet(n)
    check_work(f"family_count({family!r}, {n})", 1, n, held=1)
    if family == "cycle":
        return (1 << n) - n
    return 1 if n == 0 else 1 << (n - 1)


def build_family(family: str, n: int) -> LabeledGraph:
    """Construct an explicit labeled member of the family.

    The tree is heap-shaped (vertex i hangs under (i-1)//2), deliberately not
    a path. Ladder rung i occupies vertices 2i and 2i+1, giving 2n vertices
    and 3n-2 edges. Building a graph and printing its edge list take 2.3-3.9
    us and about 320 bytes an edge (measured at 2e5-5e5 edges), so each edge
    is priced as 40 operations on, and 7 held numbers of, log2(n+1) bits.
    """
    _check_family(family, n)
    with pricing(what := f"build_family({family!r}, {n})"):
        edge_count = n * (n - 1) / 2 if family.startswith("complete") else 3 * n if family == "ladder" else n
        check_work(what, 40 * edge_count, math.log2(n + 1), held=7 * edge_count)
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


def ladder_binet(n: int) -> int:
    """Closed form for the n-rung ladder count, evaluated exactly.

    The rung recurrence has characteristic equation x^2 = 6x + 1 with roots
    3 +- sqrt(10); fitting the starting counts 2 and 12 gives
    ((3+sqrt(10))^n - (3-sqrt(10))^n) / sqrt(10). If (3+sqrt(10))^n is
    x + y sqrt(10), its conjugate (3-sqrt(10))^n is x - y sqrt(10), so the
    count is 2y: one power, by squaring over the bits of n from the top. It
    reaches about 2.63n bits, and costs about as much as 16 Karatsuba
    products of that size (timings at n = 5e4-4e5 fit 10-13).
    """
    if n < 1:
        raise ValueError("ladder needs n >= 1")
    with pricing(what := f"ladder_binet({n})"):
        check_work(what, karatsuba(16, 2.63 * n), 2.63 * n, held=8)
    x, y = 1, 0  # (3 + sqrt(10))^m = x + y sqrt(10), m the bits of n read so far
    for bit in bin(n)[2:]:
        x, y = x * x + 10 * y * y, 2 * x * y
        if bit == "1":
            x, y = 3 * x + 10 * y, x + 3 * y
    return 2 * y


def _blocks(graph: LabeledGraph) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """The biconnected blocks as (n, edges), by one iterative lowlink DFS
    (Hopcroft and Tarjan) that keeps the edges of the open blocks on a stack,
    each as (a, b) with a discovered first. A block's vertices are relabelled
    0..n-1 as its edges are popped, in order of first appearance, which is
    their order of discovery, so a < b on every edge. Only blocks of 3 or
    more vertices come out: bridges and isolated vertices yield nothing."""
    n = graph.vertex_count
    adj: list[list[int]] = [[] for _ in range(n)]  # in edge-set order: the split needs none
    for u, v in graph.edges:
        adj[u].append(v)
        adj[v].append(u)
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
                    edge_stack.append((w, v))
                    if pre[w] < low[v]:
                        low[v] = pre[w]
            else:
                stack.pop()
                if parent == -1:
                    continue
                if low[v] < low[parent]:
                    low[parent] = low[v]
                if low[v] >= pre[parent]:
                    if len(edge_stack) == mark + 1:  # a bridge, which yields nothing
                        del edge_stack[mark]
                        continue
                    label = {parent: 0, v: 1}  # its first edge, into v; any later a is labelled by then
                    edges = [(label[a], label.setdefault(b, len(label))) for a, b in edge_stack[mark:]]
                    del edge_stack[mark:]
                    yield len(label), edges


# A direct subset-DP step in check_work operations: 1.5 of about 27 word
# steps; a transform step (one element of a zeta or Möbius pass, with the
# connected-set table and the packing and product of each set folded in) 2
# of the packed numbers of the largest cube. scripts/step_costs.py measures
# 18-23 word steps a direct step at 8-12 vertices (priced 40), a cube of m
# taking exactly 3^m. On K_n minus a Hamiltonian cycle, which has no
# universal vertex, the DP sums its last vertex instead of convolving the
# largest cube, so it takes 16-33 word steps a priced transform step at
# 10-17 (priced 67-104), and the whole DP is priced at 2.8-5.5 times its
# time (three runs, CPython 3.11, 2-vCPU x86-64 guest whose speed drifts by
# up to 40% between them, 4 ns a word step).
SUBSET_STEP_OPERATIONS = 1.5
TRANSFORM_STEP_OPERATIONS = 2
# The frontier DP's price in word steps a step of its state bound (a state
# tuple built and relabelled), on top of one addition of its counts; it both
# prices the DP and routes each block. Through the successor memo, the script
# measures 180-480 word steps a step at width 2 (cycles and ladders of
# 12-10000 vertices) with the memo warm and 190-750 cold, 20-430 at widths
# 4-6 (grids) and 120-230 at widths 7-8 (random blocks of 23-27). It is an
# upper bound except on the smallest blocks, which pay a fixed cost a call:
# a 6-cycle with a cold memo takes 1490-1680 word steps a step (36 steps in
# 0.2 ms) against 585 priced; reduce_and_count counts cycles and ladders by
# the series-parallel reductions instead.
FRONTIER_STEP_PRICE = 585
# The series-parallel reductions' price in operations a reduction, on numbers
# of _count_bits: a series step takes 7 products and 4 additions, a parallel
# one 5 and 2, most with one small factor. The script measures the price at
# 1.0-6.4 times their time on cycles and ladders of 10^3-10^5 vertices, and
# 2.4-116 times on random 2-trees of 10^3-10^5, whose counts have fewer bits
# than their edges; blocks of about 12 vertices pay a fixed cost a call,
# priced at 0.8-1.1 times their time (two runs).
SERIES_PARALLEL_OPERATIONS = 6


@memo(1)
def _state_bounds() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Bell numbers, and two-level Bell numbers 1, 1, 3, 12, 60, 358, ...
    (a(n+1) = sum over k of C(n, k) a(k) Bell(n+1-k)): the ways to split w
    frontier vertices into blocks and each block into components, which bound
    the frontier DP's states at width w. Both stop at 40 (B2(40) ~ 1e47)."""
    bell, two = [1], [1]
    for n in range(40):
        bell.append(sum(math.comb(n, k) * bell[k] for k in range(n + 1)))
        two.append(sum(math.comb(n, k) * two[k] * bell[n + 1 - k] for k in range(n + 1)))
    return tuple(map(float, bell)), tuple(map(float, two))


def _subset_cost(n: int) -> tuple[float, float, float]:
    """The subset DP on n vertices: its operations, the bits of the numbers
    they act on and how many numbers it holds at once, all infinite past
    n = 600, where a float no longer holds 3^n.

    A cube of m <= DIRECT_CUBE_BITS vertices takes 3^m direct steps, a
    larger one m 2^m transform steps: the passes of its zeta and Möbius
    transforms, with the connected-set table and the packing and product of
    each of its sets folded into their price. When some cube is convolved,
    every step is priced on the packed numbers of the largest, m = n - 1:
    m + 1 fields of at most 2m + m log2(m + 1) + 1 bits (a count of m
    vertices is at most Bell(m)); otherwise on counts of n log2(n + 1) bits.
    Where no vertex is universal the DP sums the last vertex instead of
    convolving that largest cube, but its steps stay in the price, which is
    kept as an upper bound. So are the 2^(n+1) numbers held: 2^n counts,
    with 2^n bytes of connected sets, and two lists of 2^m packed numbers
    while a cube of m vertices is convolved, m at most n - 1, or n - 2 where
    no vertex is universal."""
    if n > 600:
        return math.inf, math.inf, math.inf
    top = n - 1
    if top <= DIRECT_CUBE_BITS:
        return SUBSET_STEP_OPERATIONS * (3.0 ** n - 1) / 2, n * math.log2(n + 1), 2.0 ** n
    low = DIRECT_CUBE_BITS
    direct = (3.0 ** (low + 1) - 1) / 2
    transform = (top - 1) * 2.0 ** (top + 1) - (low - 1) * 2.0 ** (low + 1)  # m 2^m for m > low
    bits = n * (2 * top + top * math.log2(n) + 1)
    return (SUBSET_STEP_OPERATIONS * direct + TRANSFORM_STEP_OPERATIONS * transform, bits,
            2 * 2.0 ** n)


def _frontier_price(widths: list[int]) -> tuple[float, float]:
    """The frontier DP's bound on its steps, given the frontier width before
    each of its vertices, and its largest bound on the states: every state
    tries at most width + 1 blocks for the next vertex, and the states at
    width w after i vertices are at most the two-level Bell number of w and
    Bell(i), as a partition of those vertices into blocks fixes the state."""
    bell, two = _state_bounds()
    if max(widths, default=0) >= len(two):
        return math.inf, math.inf
    states = [min(two[w], b) for w, b in zip(widths, bell)] + [two[w] for w in widths[len(bell):]]
    return sum(s * (w + 1) for s, w in zip(states, widths)), max(states, default=0)


def _block_widths(n: int) -> list[int]:
    """The least frontier widths of any order of a block of n >= 3 vertices:
    before its third vertex the two processed ones each have an unprocessed
    neighbour, and after that a frontier of one vertex would be a cut vertex."""
    return [0, 1] + [2] * (n - 2)


def _count_bits(n: int, edge_count: int) -> float:
    """Bits that bound a composition count: its blocks' edges fix it, and it
    is at most Bell(n) < (n + 1)^n."""
    return min(edge_count, n * math.log2(n + 1))


def _frontier_cost(n: int, edge_count: int, widths: list[int] | None = None) -> tuple[float, float, float]:
    """The frontier DP on n vertices and edge_count edges, as _subset_cost
    gives the subset DP's: FRONTIER_STEP_PRICE word steps and one addition of
    its counts a step of _frontier_price on the widths of its order, its
    largest state bound held; without the widths, one step a vertex."""
    steps, states = (n, 1) if widths is None else _frontier_price(widths)
    bits = _count_bits(n, edge_count)
    return steps * (1 + FRONTIER_STEP_PRICE / word_steps(1, bits)), bits, states


def _price_frontier(n: int, edge_count: int, widths: list[int] | None = None) -> None:
    """Refuse the frontier DP on n vertices where _frontier_cost puts it over
    the work budget."""
    with pricing(f"the frontier DP on {n} vertices"):  # _count_bits overflows past 10^308
        operations, bits, states = _frontier_cost(n, edge_count, widths)
    what = ", at one step a vertex," if widths is None else f" and up to {states:.3g} states"
    check_work(f"the frontier DP on {n} vertices{what}", operations, bits, held=states, printed=0)


def _series_parallel_cost(n: int, edge_count: int) -> tuple[float, float, float]:
    """_series_parallel on n vertices and edge_count edges, as _subset_cost
    gives the subset DP's: SERIES_PARALLEL_OPERATIONS a reduction, at most
    n + edge_count of them, on numbers of _count_bits, the three counts of a
    state held."""
    return SERIES_PARALLEL_OPERATIONS * (n + edge_count), _count_bits(n, edge_count), 3


def _series_parallel(n: int, edges: list[tuple[int, int]]) -> int | None:
    """The count of a block on vertices 0..n-1 by series and parallel
    reductions, or None where they stall, which they do exactly on a block
    with a K_4 minor (Duffin 1965).

    Each edge stands for a two-terminal part of the block and keeps three
    counts of its compositions, in which every block that holds neither end
    is connected: the ends in different blocks (a), in one block connected
    inside the part (b), and in one block whose pieces inside the part each
    hold one end (c); a plain edge is (1, 1, 0). A vertex of degree 2 joins
    its two edges in series, a second edge between two vertices joins them
    in parallel, and once two vertices are left, their edge counts a + b.
    Each vertex keeps a dict from neighbour to edge state, and a stack holds
    the vertices that may be of degree 2. Unpriced, like _count_subset:
    _count_block prices it at _series_parallel_cost before it calls it."""
    links: list[dict[int, tuple[int, int, int]]] = [{} for _ in range(n)]
    for a, b in edges:
        links[a][b] = links[b][a] = (1, 1, 0)
    stack = [v for v, neighbours in enumerate(links) if len(neighbours) <= 2]
    a, b, c = 1, 1, 0  # the last edge made, or the one edge of K_2
    left = n
    while left > 2 and stack:
        v = stack.pop()
        if len(links[v]) != 2:  # taken out already, or of degree 3 or more
            continue
        (s, (a1, b1, c1)), (t, (a2, b2, c2)) = links[v].items()
        links[v].clear()
        del links[s][v], links[t][v]
        left -= 1
        a, b, c = b1 * a2 + a1 * b2 + a1 * a2, b1 * b2, b1 * c2 + c1 * b2 + a1 * a2
        if t in links[s]:  # in parallel with the edge s-t
            a1, b1, c1 = links[s][t]
            a, b, c = a1 * a, b1 * b + b1 * c + c1 * b, c1 * c
            stack += (x for x in (s, t) if len(links[x]) == 2)  # each lost its edge to v
        links[s][t] = links[t][s] = a, b, c
    return a + b if left == 2 else None


def _balanced_product(values: list[int]) -> int:
    """The product of the values, multiplied in pairs, then pairs of pairs:
    each round multiplies numbers of about equal size, so k factors cost
    O(log k) rounds instead of k products with one growing number."""
    while len(values) > 1:
        values = [math.prod(values[i:i + 2]) for i in range(0, len(values), 2)]
    return values[0] if values else 1


# The most blocks whose counts _count_block keeps, and the most vertices of
# a block it keeps (a key of at most 64^2 bits, a count below 2^217).
BLOCK_MEMO_ENTRIES = 4096
BLOCK_MEMO_VERTICES = 64


def reduce_and_count(graph: LabeledGraph) -> int:
    """Count compositions as a product over the biconnected blocks.

    C(G) is the product of C(B) over the blocks B of every component (the
    cut-vertex rule); a bridge contributes 2, so the edges in no block of
    _blocks make one shift, and the counts that _count_block finds for its
    blocks one balanced product."""
    # the block split holds up to 183 bytes and takes up to 2.1 us per vertex
    # and edge (graphs of 1e6 vertices): 4 numbers held and 20 operations
    size = graph.vertex_count + len(graph.edges)
    check_work(f"the block split of {graph.vertex_count} vertices and {len(graph.edges)} edges",
               20 * size, 0, held=4 * size, printed=0)
    bridges = len(graph.edges)
    counts = []
    for n, edges in _blocks(graph):
        bridges -= len(edges)
        counts.append(_count_block(n, edges)[0])
    return _balanced_product(counts) << bridges


def _refined_key(adj: list[list[int]]) -> tuple[int, int]:
    """The memo key of the block of these neighbour lists relabelled in order
    of (colour, DFS label), its colours found by colour refinement (1-WL):
    from the degrees, each round ranks (colour, sorted neighbour colours)
    among the sorted distinct signatures until no class splits. Where every
    vertex ends with its own colour, as in almost every random graph (Babai,
    Erdős and Selkow 1980), isomorphic blocks share the key."""
    n = len(adj)
    colours = list(map(len, adj))
    classes = len(set(colours))
    while True:
        signatures = [(c, tuple(sorted(colours[w] for w in nbrs))) for c, nbrs in zip(colours, adj)]
        rank = {signature: i for i, signature in enumerate(sorted(set(signatures)))}
        if len(rank) == classes:
            break
        colours, classes = [rank[signature] for signature in signatures], len(rank)
    label = dict(zip(sorted(range(n), key=lambda v: colours[v]), range(n)))  # a stable sort: ties in DFS order
    return n, sum(1 << label[a] * n + label[b]
                  for a, neighbours in enumerate(adj) for b in neighbours if label[a] < label[b])


def _count_block(n: int, edges: list[tuple[int, int]]) -> tuple[int, str]:
    """The count of a block on vertices 0..n-1, with the route that found
    it: "memo", "series-parallel", "frontier" or "subset". This is the one
    place where a block's count is found and its counter picked.

    A block of at most BLOCK_MEMO_VERTICES is first looked up in the block
    memo, least recently used first, keyed by (n, bits) with bit a n + b for
    each edge (a, b) under the labels of _blocks, in DFS discovery order:
    every labelling of C_n or K_m gives one key. A key is the block's edge
    set under a bijective relabelling, so a hit is an isomorphic block, of
    equal count, and runs no counter. On a miss the degrees are counted
    once, for h, the vertices that are not universal, and the least degree,
    and each counter is priced once in word steps, the unit check_work
    reads: the subset DP at _subset_cost(h), the frontier DP at its least
    price, on _block_widths (no order of a block is narrower: 9n - 18 steps
    of the state bound), and the reductions at _series_parallel_cost. Then,
    in order:
    1. the series-parallel reductions, priced and refused here, where a
       vertex has degree 2 and the subset DP's price is above that least,
       which is at least theirs;
    2. where they stall, on a K_4 minor, or were not tried, a block within
       BLOCK_MEMO_VERTICES is looked up under _refined_key of its adjacency;
    3. on a miss, the DP of the lower price, kept under the refined key: the
       frontier DP's order (and a larger block's adjacency) is built only
       where the subset DP's price is above the least and the least fits the
       budget, and it runs where its price on that order is still below the
       subset DP's. Each DP prices itself; where the lower DP price is over
       the work budget, so is the other.
    A count is then kept under the DFS key, and the least recently used
    entries past BLOCK_MEMO_ENTRIES go; a refusal raises before anything is
    kept."""
    known = KEPT.setdefault("blocks", {})
    key = (n, sum(1 << a * n + b for a, b in edges)) if n <= BLOCK_MEMO_VERTICES else None
    found = known.pop(key, None)  # None for a larger block, which has no key
    if found is not None:
        known[key] = found  # put back as the most recently used
        return found, "memo"
    degrees = Counter(chain.from_iterable(edges)).values()
    subset = word_steps(*_subset_cost(n - sum(d == n - 1 for d in degrees))[:2])
    least = word_steps(*_frontier_cost(n, len(edges), _block_widths(n))[:2])
    if min(degrees) <= 2 and subset > least:
        operations, bits, held = _series_parallel_cost(n, len(edges))
        if least >= word_steps(operations, bits):
            check_work(f"the series-parallel reductions of {n} vertices", operations, bits,
                       held=held, printed=0)
            found, route = _series_parallel(n, edges), "series-parallel"
    if found is None:
        adj = _adjacency(n, edges) if key else None
        refined = _refined_key(adj) if key else None
        found, route = known.pop(refined, None), "memo"
        if found is None and subset > least:
            _price_frontier(n, len(edges), _block_widths(n))  # before the order, and a larger block's adjacency
            adj = adj or _adjacency(n, edges)
            order, widths = _frontier_order(adj)
            if word_steps(*_frontier_cost(n, len(edges), widths)[:2]) < subset:
                found, route = _count_frontier(adj, order, widths), "frontier"
        if found is None:
            # the benchmark's tracer counts this call; ROADMAP item 2 removes it
            found, route = count_compositions_graph(LabeledGraph(n, edges)), "subset"
        if refined:
            known[refined] = found
    if key:
        known[key] = found
        while len(known) > BLOCK_MEMO_ENTRIES:
            del known[next(iter(known))]
    return found, route


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
