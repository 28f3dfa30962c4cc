"""Labeled graphs and exact counting of their compositions.

A composition of a graph is a partition of its vertex set into blocks that
each induce a connected subgraph (the induced subgraph on a block is unique,
so the partition alone identifies the composition). Two exact counters:
``count_compositions_graph`` runs a subset dynamic program over the 2^h
bitmask states of the h vertices that are not universal (adjacent to all
others), one table kept in the ranked zeta domain with one transform per
vertex, in about h 2^h steps, and adds the universal vertices by a signed
Bell sum, so it suits small dense graphs and K_n costs one Bell number (the
first step of join decomposition: Gallai 1967; Corneil, Perl and Stewart
1985);
``count_compositions_frontier`` runs a frontier DP along a vertex order,
whose states follow the frontier width instead, and suits thin graphs of
any size; the successors of a state in a step of a given shape come from a
bounded memo (_successors) that every block shares. ``reduce_and_count``
returns the product of the counts of the biconnected blocks:
C(G1 u G2) = C(G1)C(G2) for disjoint or one-shared-vertex unions, so a
bridge (a two-vertex block) contributes 2, and a forest of m edges, which
union-find proves acyclic in near-linear time, has 2^m compositions with no
search. Any other graph is split into its blocks by one linear-time DFS,
which labels the vertices of each in discovery order. Each block of 3 or
more vertices goes to _count_block, the one place where a block's count is
found, which returns it with the route it took: the block memo, under those
labels or under labels ordered by colour refinement, where a hit runs no
counter; else, charged under the shared work budget (errors.check_work),
series and parallel reductions (_series_parallel), which count a block with
no K_4 minor (a cycle, ladder, fan or 2-tree), where they are priced lowest,
or the subset or the frontier DP, whichever is priced lower. Each counter
has one charge function, _subset_charge, _frontier_charge or
_reductions_charge, which gives what check_work reads; the counter bodies
price nothing, and whoever calls one charges it."""

import heapq
import math
import re
import sys
from collections import Counter
from collections.abc import Iterable, Iterator
from functools import reduce
from itertools import chain, combinations, compress, repeat
from operator import add, and_, lshift, mul, or_, rshift, sub, xor

from . import FAMILIES, exactnum
from .errors import (KEPT, MEMORY_BUDGET, Frozen, ResourceLimitError, check_work, karatsuba, memo, pricing,
                     word_steps)

# The largest graph whose set partitions perfbench/pin_dense.py lists to check
# a pinned count; nothing here reads it, as check_work prices each listing.
ENUMERATION_VERTEX_LIMIT = 10
# The subset DP replaces its packed numbers this many at a time, in its
# products and in each pass of its transforms, so it never holds a second
# copy of a list of them.
PACKED_CHUNK = 1024

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
    states and about h 2^h steps, so K_n costs one Bell number. With
    u = 0 the count is its last entry alone, one sum over the connected sets
    through the last vertex, which the DP's table then never takes in, so
    its largest transforms run on 2^(h-2) sets, not 2^(h-1). The work budget
    refuses it past 19 vertices that are not universal, priced on the
    degrees before any list of n entries is built, and the Bell numbers by
    exactnum.bell_numbers; reduce_and_count splits a graph into biconnected
    blocks and hands here those the subset DP counts for less than the
    frontier DP."""
    check_work(*_subset_charge(_not_universal(graph.vertex_count, graph.edges)), printed=0)
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
        return _subset_ways(nbr, True)[-1]
    bells = exactnum.bell_numbers(n)
    by_size = [0] * (h + 1)
    for subset, ways in enumerate(_subset_ways(nbr)):
        by_size[subset.bit_count()] += ways
    g: list[int] = []  # solved forward from by_size[j] = sum of g[k] C(h - k, j - k) Bell(j - k)
    for j, total in enumerate(by_size):
        g.append(total - sum(gk * math.comb(h - k, j - k) * bells[j - k] for k, gk in enumerate(g)))
    return sum(gk * bells[n - k] for k, gk in enumerate(g))


def _subset_ways(nbr: list[int], count_only: bool = False) -> list[int]:
    """The subset DP: ways[S] counts the compositions of G[S] for every
    vertex set S, given the neighbour masks of n vertices; over all n it is
    the reference that the tests and verify compare against.

    Each part of a partition is counted through its highest vertex u, so the
    parts through u are the connected sets in connected[2^u : 2^(u+1)],
    which _connected_sets finds for all sets at once. One table stays in
    the ranked zeta domain (Björklund, Husfeldt, Kaski and Koivisto, STOC
    2007): table[X], over the sets X of the vertices below u, is the
    polynomial whose rank-k coefficient counts the tuples of parts, one or
    none through each vertex below u, all inside X, of k vertices in all.
    It is packed into one int of _field_bits(n) bits a rank (Kronecker
    substitution), so one add or product acts on every rank at once. For
    each u the slice of parts through u is rank-packed and zeta-transformed
    once, and the table times one plus it, for the sets through u, extends
    the table. Each product drops the ranks above the u + 1 vertices seen:
    the parts of a partition are disjoint, so only tuples that overlap are
    lost, and the last read ignores those anyway. The Möbius transform then
    leaves, in rank |Y| of Y, the tuples of disjoint parts whose union is
    Y, which are its compositions. That is one transform of the 2^u sets
    below each vertex, about n 2^n steps in all: the last vertex is not
    added to the table, but one Möbius pass runs over the table and one
    over that vertex's products.

    With count_only, the caller reads only ways[-1], the whole vertex set F,
    and the table stops one vertex earlier: the list holds the counts of the
    sets without the last vertex, then ways(F), one sum of ways(F minus T)
    over the connected sets T through that vertex, a lookup and an add each.
    Unpriced: count_compositions_graph charges it, at _subset_charge."""
    n = len(nbr)
    connected = _connected_sets(nbr)
    width = _field_bits(n)
    last = n - 2 if count_only else n - 1  # the last vertex multiplied in
    table, ranks, packed = [1], [1], []  # ranks[X]: the vertices of X and u, a part through u
    for u in range(last + 1):
        low = 1 << u
        packed = list(map(lshift, connected[low:low << 1], map(mul, ranks, repeat(width))))
        if u < last:
            packed[0] += 1  # the tuples with no part through u: the table's own counts
        _zeta(packed, add)
        cut = (1 << width * (u + 2)) - 1  # ranks 0..u + 1
        for start in range(0, low, PACKED_CHUNK):  # the products take the packed parts' place
            chunk = slice(start, start + PACKED_CHUNK)
            packed[chunk] = map(and_, map(mul, table[chunk], packed[chunk]), repeat(cut))
        if u == last:
            break
        table += packed
        ranks += [r + 1 for r in ranks]
    field = (1 << width) - 1
    _zeta(table, sub)
    ways = [m >> width * (r - 1) & field for m, r in zip(table, ranks)]
    del table  # let the packed table go before the products' counts are read
    _zeta(packed, sub)
    ways += [m >> width * r & field for m, r in zip(packed, ranks)]
    if count_only and n:
        # F minus the set T = X + the last vertex is the reversed index of X
        ways.append(sum(compress(reversed(ways), connected[len(ways):])))
    return ways


@memo(64)
def _field_bits(n: int) -> int:
    """The bits of one rank of _subset_ways' packed numbers on n vertices: of
    the largest coefficient of x^0..x^n in the product over u < n of
    1 + x(1 + x)^u, which counts tuples of parts through distinct vertices u,
    each inside the vertices up to u, by their vertices in all (37 bits at
    13 vertices, 62 at 19). Every kept rank of the table, of its products
    and of the partial sums of both transforms counts some of those, so none
    overflows or borrows, and a carry past the cut goes up, into ranks cut
    too. The product is packed in fields wider than any coefficient, which
    is at most the product of 1 + 2^u, below 2^(n(n + 1)/2)."""
    shift = n * (n + 1) // 2 + 1
    x, cut = 1 << shift, (1 << shift * (n + 1)) - 1
    poly = power = 1  # power: (1 + x)^u
    for _ in range(n):
        poly = poly * (1 + x * power) & cut
        power = power * (x + 1) & cut
    return max(poly >> shift * k & x - 1 for k in range(n + 1)).bit_length()


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


def _zeta(values: list[int], op) -> None:
    """values[S] = op(values[S], values[S without j]) in place for each bit j
    of the 2^m indices, one bit at a time: with add the sum over subsets (the
    zeta transform), with sub its inverse (the Möbius transform). Each bit
    takes whichever is fewer, strided slices or contiguous blocks, cut into
    slices of at most PACKED_CHUNK entries."""
    size, step = len(values), 1
    while step < size:
        span = step << 1
        if step * span < size:
            band = span * PACKED_CHUNK
            for start in range(0, size, band):
                for r in range(start + step, start + span):
                    values[r:start + band:span] = map(op, values[r:start + band:span],
                                                      values[r - step:start + band:span])
        else:
            width = min(step, PACKED_CHUNK)
            for half in range(0, size >> 1, width):  # a chunk of the upper halves of the blocks
                low = half + (half // step + 1) * step
                values[low:low + width] = map(op, values[low:low + width],
                                              values[low - step:low - step + width])
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
    Charged at one step a vertex before the adjacency, then at the state
    bound of its order (_frontier_charge).
    """
    n, edge_count = graph.vertex_count, len(graph.edges)
    check_work(*_frontier_charge(n, edge_count), printed=0)
    adj = graph.adjacency()
    order, widths = _frontier_order(adj)
    check_work(*_frontier_charge(n, edge_count, *_frontier_price(widths)), printed=0)
    return _count_frontier(adj, order)


def _count_frontier(adj: list[list[int]], order: list[int]) -> int:
    """The frontier DP of count_compositions_frontier along the given order,
    unpriced, like _count_subset: its callers charge it at _frontier_charge.
    Each step is described by its shape, in frontier positions, and each
    state is advanced by the successors that _successors gives for that
    shape."""
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


def _is_forest(n: int, edges: Iterable[tuple[int, int]]) -> bool:
    """Whether the edges close no cycle on vertices 0..n-1, by union-find
    with path halving and union by size (Tarjan and van Leeuwen 1984): False
    at the first edge whose ends already share a root."""
    parent = list(range(n))
    size = [1] * n
    for u, v in edges:
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u == v:
            return False
        if size[u] < size[v]:
            u, v = v, u
        parent[v] = u
        size[u] += size[v]
    return True


def _blocks(graph: LabeledGraph) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """The biconnected blocks as (n, edges), by one iterative lowlink DFS
    (Hopcroft and Tarjan) that keeps the edges of the open blocks on a stack,
    each as (a, b) with a discovered first. A block's vertices are relabelled
    0..n-1 as its edges are popped, in order of first appearance, which is
    their order of discovery, so a < b on every edge. Only blocks of 3 or
    more vertices come out: bridges and isolated vertices yield nothing, so
    a forest, which _is_forest finds before any neighbour list is built,
    yields nothing with no DFS. A graph of m >= n edges has a cycle and
    skips that test."""
    n = graph.vertex_count
    if len(graph.edges) < n and _is_forest(n, graph.edges):
        return
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


# The subset DP's price in check_work operations a step of its ranked table,
# (n - 2) 2^n steps on n vertices (_subset_charge).
# scripts/step_costs.py times the table on K_n minus a Hamiltonian cycle at
# 8-16 vertices, which has no universal vertex: the whole-set count that
# count_compositions_graph takes there is priced at 1.06-6.56 times its
# time, and the whole table at 1.05-2.95 (three runs, CPython 3.11, 2-vCPU
# x86-64 guest whose speed drifts by up to 40% between them, 4 ns a word
# step).
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


def _subset_charge(n: int) -> tuple[str, float, float, float]:
    """The subset DP on n vertices as check_work reads it: what it is, its
    operations, the bits of the numbers they act on and how many numbers it
    holds at once. Its callers pass printed=0, as do those of _frontier_charge
    and _reductions_charge: no block counter prices a decimal conversion, a
    block count being a factor of the count printed. count_compositions_graph
    and _count_block read it outside errors.pricing, so it raises nothing:
    past n = 600, well before 2^n leaves a float's range, all three are
    infinite.

    The ranked table of _subset_ways is priced at TRANSFORM_STEP_OPERATIONS
    for each of (n - 2) 2^n steps (at least 2^n), on n fields of
    2(n - 1) + (n - 1) log2 n + 1 bits. Its zeta passes over the 2^u sets
    below each vertex u are about (n - 2) 2^(n - 1) additions in all, and
    its two Möbius passes over 2^(n - 1) sets each, its packing and its
    products about as many again; the whole-set count takes about half of
    that. Each acts on n + 1 fields of _field_bits(n) bits (37 at 13
    vertices, 62 at 19), about 0.57 of the bits priced, so the price stays
    an upper bound. Held: 2^(n+1) numbers, with 2^n bytes of connected sets:
    at the end, the table and the last vertex's products are 2^n packed
    numbers, and the counts read from them 2^n more."""
    what = f"the subset DP over 2^{n} vertex sets"
    if n > 600:
        return what, math.inf, math.inf, math.inf
    top = max(n - 1, 0)  # the vertices below the last
    return (what, TRANSFORM_STEP_OPERATIONS * max(n - 2, 1) * 2.0 ** n,
            n * (2 * top + top * math.log2(n or 1) + 1), 2.0 ** (n + 1))


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


def _count_bits(n: int, edge_count: int) -> float:
    """Bits that bound a composition count: its blocks' edges fix it, and it
    is at most Bell(n) < (n + 1)^n."""
    return min(edge_count, n * math.log2(n + 1))


def _frontier_charge(n: int, edge_count: int, steps: float | None = None,
                     states: float = 1) -> tuple[str, float, float, float]:
    """The frontier DP on n vertices and edge_count edges as _subset_charge
    gives the subset DP's: FRONTIER_STEP_PRICE word steps and one addition of
    its counts for each of the steps of its state bound, with up to `states`
    states held, both as _frontier_price finds them on the widths of an
    order; without them, one step a vertex."""
    with pricing(what := f"the frontier DP on {n} vertices"):  # _count_bits overflows past 10^308
        bits = _count_bits(n, edge_count)
        operations = (n if steps is None else steps) * (1 + FRONTIER_STEP_PRICE / word_steps(1, bits))
    what += ", at one step a vertex," if steps is None else f" and up to {states:.3g} states"
    return what, operations, bits, states


def _reductions_charge(n: int, edge_count: int) -> tuple[str, float, float, float]:
    """_series_parallel on n vertices and edge_count edges as _subset_charge
    gives the subset DP's: SERIES_PARALLEL_OPERATIONS a reduction, at most
    n + edge_count of them, on numbers of _count_bits, the three counts of a
    state held."""
    return (f"the series-parallel reductions of {n} vertices", SERIES_PARALLEL_OPERATIONS * (n + edge_count),
            _count_bits(n, edge_count), 3)


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
    _count_block charges it at _reductions_charge before it calls it."""
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
    # the block split, priced at 4 numbers held and 20 operations (about 2.1
    # us) a vertex and edge, holds up to 183 bytes a vertex and edge on
    # graphs of 1e6 vertices. There a forest takes 0.35-0.65 us and up to 26
    # bytes, in union-find alone; the DFS takes 2.4-3.8 us, over half of it
    # in the garbage collector, as much with union-find first (a cycle that
    # it meets at its last edge) as without (CPython 3.11, 2-vCPU x86-64 guest)
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
    among the sorted distinct signatures until no class splits or every
    vertex has its own colour, whose order no further round changes. Where
    every vertex ends with its own colour, as in almost every random graph
    (Babai, Erdős and Selkow 1980), isomorphic blocks share the key."""
    n = len(adj)
    colours = list(map(len, adj))
    classes = len(set(colours))
    while classes < n:
        signatures = [(c, tuple(sorted(map(colours.__getitem__, nbrs)))) for c, nbrs in zip(colours, adj)]
        rank = {signature: i for i, signature in enumerate(sorted(set(signatures)))}
        if len(rank) == classes:
            break
        colours, classes = [rank[signature] for signature in signatures], len(rank)
    label = [0] * n
    for i, v in enumerate(sorted(range(n), key=colours.__getitem__)):  # a stable sort: ties in DFS order
        label[v] = i
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
    and each counter's charge is found once and compared in word steps, the
    unit check_work reads: the subset DP's at _subset_charge(h), the
    frontier DP's least, before any order (9n - 18 steps of the state
    bound), and the reductions' at _reductions_charge. Then, in order:
    1. the series-parallel reductions, charged and refused here, where a
       vertex has degree 2 and the subset DP's price is above that least,
       which is at least theirs;
    2. where they stall, on a K_4 minor, or were not tried, a block within
       BLOCK_MEMO_VERTICES is looked up under _refined_key of its adjacency;
    3. on a miss, the DP of the lower price, kept under the refined key: the
       frontier DP's order (and a larger block's adjacency) is built only
       where the subset DP's price is above the least and the least fits the
       budget, and it runs where its charge on that order is still below the
       subset DP's. Where the lower DP price is over the budget, so is the
       other.
    No counter body prices itself: the frontier DP is charged here, at its
    least and then on its order, the subset DP by count_compositions_graph.
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
    subset = word_steps(*_subset_charge(n - sum(d == n - 1 for d in degrees))[1:3])
    # 0, 1, 2, 2, ... are the least frontier widths of any order of a block (a
    # frontier of one vertex after the first two would be a cut vertex), on
    # which _frontier_price is 9n - 18 steps of at most 3 states (2 at n = 3)
    least_charge = _frontier_charge(n, len(edges), 9 * n - 18, min(n - 1, 3))
    least = word_steps(*least_charge[1:3])
    if min(degrees) <= 2 and subset > least:
        reductions = _reductions_charge(n, len(edges))
        if least >= word_steps(*reductions[1:3]):
            check_work(*reductions, printed=0)
            found, route = _series_parallel(n, edges), "series-parallel"
    if found is None:
        adj = _adjacency(n, edges) if key else None
        refined = _refined_key(adj) if key else None
        found, route = known.pop(refined, None), "memo"
        if found is None and subset > least:
            check_work(*least_charge, printed=0)  # before the order, and a larger block's adjacency
            adj = adj or _adjacency(n, edges)
            order, widths = _frontier_order(adj)
            charge = _frontier_charge(n, len(edges), *_frontier_price(widths))
            if word_steps(*charge[1:3]) < subset:
                check_work(*charge, printed=0)
                found, route = _count_frontier(adj, order), "frontier"
        if found is None:
            # the benchmark's tracer counts this call: perfbench/test_perfbench.py
            # asserts 1 call and 32 states on C_5. ROADMAP item 2b removes it
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


def random_tree(rng: "random.Random", n: int) -> LabeledGraph:
    """A uniformly random labeled tree on n vertices."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n <= 1:
        return LabeledGraph(n)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return LabeledGraph(n, frozenset(_tree_edges_from_sequence(seq, n)))


def random_graph(rng: "random.Random", n: int, edge_probability: float) -> LabeledGraph:
    """Each of the n*(n-1)/2 possible edges appears independently."""
    edges = {
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < edge_probability
    }
    return LabeledGraph(n, frozenset(edges))


def random_connected_graph(rng: "random.Random", n: int, extra_edge_probability: float = 0.0) -> LabeledGraph:
    """A random tree plus independent extra edges, so always connected."""
    edges = set(random_tree(rng, n).edges)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra_edge_probability:
                edges.add((u, v))
    return LabeledGraph(n, frozenset(edges))
