"""Tests for graph construction, parsing, and composition counting."""

import io
import json
import math
import operator
import sys
import time
import tracemalloc
from collections import Counter
from itertools import combinations, permutations
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from compcount import cli, compositions, errors, exactnum, graphcomp, verify
from compcount.errors import ResourceLimitError
from compcount.graphcomp import GraphParseError, LabeledGraph


PINNED_DENSE = Path(__file__).resolve().parents[1] / "perfbench" / "pinned_dense.json"


def path(n):
    return graphcomp.build_family("path", n)


def complete(n):
    return graphcomp.build_family("complete", n)


def complete_minus_cycle(n):
    """K_n minus the Hamiltonian cycle 0-1-...-(n-1)-0: for n >= 5 no vertex
    is universal and the complement is connected, so no shortcut applies."""
    return LabeledGraph(n, {(u, v) for u, v in combinations(range(n), 2)
                            if v - u >= 2 and (u, v) != (0, n - 1)})


# --- graph values -----------------------------------------------------------

def test_graph_normalizes_and_validates():
    g = LabeledGraph(3, {(2, 1), (1, 2), (0, 1)})
    assert g.edges == frozenset({(1, 2), (0, 1)})
    with pytest.raises(ValueError):
        LabeledGraph(3, {(1, 1)})
    with pytest.raises(ValueError):
        LabeledGraph(3, {(0, 3)})
    with pytest.raises(ValueError):
        LabeledGraph(-1)


def test_adjacency_and_masks():
    g = path(3)
    assert g.adjacency() == [[1], [0, 2], [1]]
    assert g.neighbor_masks() == [0b010, 0b101, 0b010]


def test_neighbour_lists_are_increasing_whatever_the_order_of_the_edges():
    # the frontier order breaks its ties on the order of the neighbour lists
    rng = Random(1962)
    for _ in range(60):
        n = rng.randint(1, 30)
        graph = relabelled(graphcomp.random_connected_graph(rng, n, rng.uniform(0, 0.6)), rng)
        for n, edges in [(n, list(graph.edges)), *graphcomp._blocks(graph)]:
            neighbours = [set() for _ in range(n)]
            for u, v in edges:
                neighbours[u].add(v)
                neighbours[v].add(u)
            expected = [sorted(ws) for ws in neighbours]
            for _ in range(3):
                edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
                rng.shuffle(edges)
                assert graphcomp._adjacency(n, edges) == expected
                assert LabeledGraph(n, edges).adjacency() == expected


# --- edge-list parsing --------------------------------------------------------

def test_parse_path():
    g = graphcomp.parse_edge_list("3\n0 1\n1 2\n")
    assert g == path(3)


def test_parse_rejects_loop_with_line_number():
    with pytest.raises(GraphParseError, match="line 2"):
        graphcomp.parse_edge_list("2\n0 0\n")


def test_parse_edgeless():
    g = graphcomp.parse_edge_list("4\n")
    assert g.vertex_count == 4
    assert not g.edges


def test_parse_comments_blanks_crlf_and_duplicates():
    text = "# a path\r\n\r\n3\r\n0 1\r\n1 0\r\n\r\n# tail\r\n1 2\r\n"
    assert graphcomp.parse_edge_list(text) == path(3)


# Lines for the parse property test. First lines: counts, or text before any
# count (a comment, an edge, a letter, an Arabic-Indic three). Later lines:
# edges with padding, loops, labels out of range and blank lines, which keep
# a text plain, then further counts, three labels on a line, comments, form
# feeds, a superscript two and a hex label. Lines end in LF, CRLF, a lone CR
# or nothing. What keeps a text plain is drawn more often.
_FIRST_LINES = ["3", "5", " 12\t", "0"] * 2 + ["# c", "2 1", "x", "\u0663"]
_PLAIN_LINES = ["0 1", "1 2", " 2\t4 ", "4 3", "10 11", "1 1", "0 9", "01 1", "", "  ", "\t"]
_OTHER_LINES = ["3", "0 1 2", "# a note", "  # 1 2", "\x0c", "0 \x0c1", "0 \u00b2", "1 0x1"]
_LINE_ENDS = ["\n"] * 4 + ["\r\n"] * 2 + ["\r", ""]


@settings(max_examples=400)
@example("", ("3", "\n"), [("0 1 2", "\n")])
@example("", ("3", "\r"), [("0 1 2", "\n")])
@example("", ("3", "\n"), [("0 1", "\n"), ("1 1", "\r\n")])
@example("\n", ("3", "\n"), [("0 9", "\n")])
@example(" \r\n\t\n", (" 12\t", "\r\n"), [(" 2\t4 ", "\r\n"), ("\x0c", "\n"), ("10 11", "")])
@example("", ("0", ""), [])
@example("", ("3", "\n"), [("0 " + "1" * 5000, "\n")])  # past int's default digit limit
@example("", ("9" * 400, "\n"), [("0 1", "\n")])  # past the range of a float
@given(st.sampled_from(["", "\n", " \r\n\t\n"]),
       st.tuples(st.sampled_from(_FIRST_LINES), st.sampled_from(_LINE_ENDS)),
       st.lists(st.tuples(st.sampled_from(_PLAIN_LINES * 3 + _OTHER_LINES), st.sampled_from(_LINE_ENDS)),
                max_size=8))
def test_the_plain_parse_agrees_with_the_line_parser(blank, first, rest):
    text = blank + "".join(line + end for line, end in [first] + rest)

    def outcome(parse):
        try:
            return parse(text)
        except (ValueError, ResourceLimitError) as error:  # GraphParseError among them
            return type(error), str(error)

    assert outcome(graphcomp.parse_edge_list) == outcome(graphcomp._parse_edge_lines)


def test_a_plain_edge_list_is_read_without_the_line_parser(monkeypatch):
    def no_lines(text):
        raise AssertionError("the line parser ran")

    monkeypatch.setattr(graphcomp, "_parse_edge_lines", no_lines)
    text = "\n  \r\n5 \r\n0 1\r\n\t3\t1 \n\n4   2\n1 0\n"
    assert graphcomp.parse_edge_list(text) == LabeledGraph(5, {(0, 1), (1, 3), (2, 4)})
    assert graphcomp.parse_edge_list("2") == LabeledGraph(2)


class _Reader:
    """A text handle of `size` '#' characters that records what was asked."""

    def __init__(self, size):
        self.size, self.asked = size, []

    def read(self, n):
        self.asked.append(n)
        return "#" * min(n, self.size)


def test_read_edge_list_refuses_exactly_past_its_limit(monkeypatch):
    limit = graphcomp.EDGE_LIST_MAX_CHARS
    monkeypatch.setattr(graphcomp, "parse_edge_list", len)  # only the guard is under test
    reader = _Reader(limit)
    assert graphcomp.read_edge_list(reader) == limit
    assert reader.asked == [limit + 1]
    for size in (limit + 1, 10 ** 12):
        with pytest.raises(ResourceLimitError, match=f"more than {limit} characters"):
            graphcomp.read_edge_list(_Reader(size))


def test_parse_error_cases():
    with pytest.raises(GraphParseError, match="line 1"):
        graphcomp.parse_edge_list("")
    with pytest.raises(GraphParseError, match="line 2"):
        graphcomp.parse_edge_list("3\n0 1 2\n")
    with pytest.raises(GraphParseError, match="line 3"):
        graphcomp.parse_edge_list("3\n0 1\n0 7\n")
    with pytest.raises(GraphParseError, match="line 1"):
        graphcomp.parse_edge_list("x\n0 1\n")
    # str.isdigit admits these; only ASCII digits are labels
    with pytest.raises(GraphParseError, match="line 2"):
        graphcomp.parse_edge_list("3\n0 \u00b2\n")
    with pytest.raises(GraphParseError, match="line 1"):
        graphcomp.parse_edge_list("\u0663\n0 1\n")


def test_a_vertex_count_past_the_range_of_a_float_is_refused_on_line_1():
    for digits in (309, 400, 5000):  # int() alone refuses the last past 4300 digits
        with pytest.raises(ResourceLimitError,
                           match=rf"^line 1: a vertex count of {digits} digits is too large to price$"):
            graphcomp.parse_edge_list("9" * digits + "\n0 1\n")
    assert graphcomp.parse_edge_list("9" * 308 + "\n0 1\n").vertex_count == 10 ** 308 - 1
    assert graphcomp.parse_edge_list("0" * 5000 + "2\n0 1\n") == path(2)


def test_a_label_past_the_digit_limit_of_int_is_out_of_range():
    with pytest.raises(GraphParseError, match=r"^line 3: vertex label out of range 0\.\.1$"):
        graphcomp.parse_edge_list("2\n0 1\n" + "9" * 5000 + " 1\n")
    with pytest.raises(GraphParseError, match=r"^line 2: loop edge 1 1$"):
        graphcomp.parse_edge_list("2\n" + "0" * 5000 + "1 01\n")
    # leading zeros do not make a label out of range
    assert graphcomp.parse_edge_list("2\n" + "0" * 5000 + "1 0\n").edges == {(0, 1)}


def test_format_round_trip():
    g = graphcomp.build_family("ladder", 3)
    assert graphcomp.parse_edge_list(graphcomp.format_edge_list(g)) == g


# --- connectivity ----------------------------------------------------------------

def test_is_connected():
    g = path(3)
    assert not graphcomp.is_connected(g, {0, 2})
    assert graphcomp.is_connected(g, {1})
    assert graphcomp.is_connected(complete(3), {0, 1, 2})
    assert graphcomp.is_connected(g, {0, 1, 2})


def test_is_connected_rejects_bad_subsets():
    g = path(3)
    with pytest.raises(ValueError):
        graphcomp.is_connected(g, set())
    with pytest.raises(ValueError):
        graphcomp.is_connected(g, {5})


def test_is_connected_searches_inside_the_subset_within_its_price():
    g = path(100000)
    assert graphcomp.is_connected(g, range(100000))
    assert not graphcomp.is_connected(g, [0, 99999])
    assert not graphcomp.is_connected(g, [v for v in range(100000) if v != 500])
    assert graphcomp.is_connected(graphcomp.build_family("cycle", 6), [5, 0, 1])
    with pytest.raises(ResourceLimitError, match="is_connected on 100000000 vertices needs"):
        graphcomp.is_connected(LabeledGraph(10 ** 8), [0])


# --- the subset DP -----------------------------------------------------------------

def test_count_known_graphs():
    assert graphcomp.count_compositions_graph(path(4)) == 8
    assert graphcomp.count_compositions_graph(complete(4)) == 15
    assert graphcomp.count_compositions_graph(graphcomp.build_family("cycle", 4)) == 12
    assert graphcomp.count_compositions_graph(LabeledGraph(0)) == 1
    assert graphcomp.count_compositions_graph(LabeledGraph(1)) == 1


def test_count_multiplies_over_disjoint_pieces():
    two_edges = LabeledGraph(4, {(0, 1), (2, 3)})
    assert graphcomp.count_compositions_graph(two_edges) == 4
    # the lowest vertex's component is not a prefix of the labels, so the
    # product step runs on scattered masks
    evens = set(combinations(range(0, 10, 2), 2))
    odds = set(combinations(range(1, 10, 2), 2))
    assert graphcomp.count_compositions_graph(LabeledGraph(10, evens | odds)) == exactnum.bell(5) ** 2
    # K4 on 0, 3, 6, 8; a path 1-7-4; 2 and 5 isolated
    mixed = set(combinations((0, 3, 6, 8), 2)) | {(1, 7), (4, 7)}
    assert graphcomp.count_compositions_graph(LabeledGraph(9, mixed)) == 15 * 4


def test_the_connected_set_table_matches_a_search_on_every_set():
    rng = Random(2001)
    graphs = [LabeledGraph(n) for n in range(15)] + [complete(n) for n in range(15)]
    for n in range(2, 15):
        # induced paths whose lowest vertex is an end: along the vertex order, and
        # 0 - (n - 1) - ... - 1 against it, which takes a round a vertex
        graphs += [path(n), LabeledGraph(n, {(0, n - 1)} | {(v, v + 1) for v in range(1, n - 1)})]
    graphs += [graphcomp.random_graph(rng, n, p) for p in (0.1, 0.3, 0.5, 0.7, 0.9)
               for n in [0, 1, 2, 14] + [rng.randint(3, 13) for _ in range(4)]]
    for graph in graphs:
        nbr, n = graph.neighbor_masks(), graph.vertex_count
        connected = graphcomp._connected_sets(nbr)
        assert len(connected) == 1 << n and connected[0] == 0
        assert [connected[s] for s in range(1, 1 << n)] == \
            [graphcomp._mask_connected(s, nbr) for s in range(1, 1 << n)], sorted(graph.edges)


def per_state_ways(nbr, n):
    """The subset DP state by state in increasing order, the oracle of the
    ranked table: a state that is not connected multiplies the counts of
    its lowest vertex's component and of the rest, a connected one sums over
    its connected submasks through its lowest vertex."""
    ways = [0] * (1 << n)
    ways[0] = 1
    connected = bytearray(1 << n)
    for state in range(1, 1 << n):
        low = state & -state
        component = frontier = low
        while frontier:
            grown = 0
            while frontier:
                bit = frontier & -frontier
                grown |= nbr[bit.bit_length() - 1]
                frontier ^= bit
            frontier = grown & state & ~component
            component |= frontier
        if component != state:
            ways[state] = ways[component] * ways[state ^ component]
            continue
        connected[state] = 1
        rest = state ^ low
        acc = 1
        other = rest
        while other:
            if connected[state ^ other]:
                acc += ways[other]
            other = (other - 1) & rest
        ways[state] = acc
    return ways


def test_the_ranked_table_matches_the_per_state_dp():
    rng = Random(2007)
    graphs = [graphcomp.random_graph(rng, n, p) for p in (0.1, 0.3, 0.5, 0.7, 0.9, 1)
              for n in [14] + [rng.randint(0, 13) for _ in range(5)]]
    for graph in graphs:
        nbr = graph.neighbor_masks()
        expected = per_state_ways(nbr, graph.vertex_count)
        assert graphcomp._subset_ways(nbr) == expected, sorted(graph.edges)


def complete_minus_matching(n):
    """K_n minus the perfect matching {0, 1}, {2, 3}, ...: n even, no vertex universal."""
    return LabeledGraph(n, {(u, v) for u, v in combinations(range(n), 2) if (u, v) != (u, u + 1) or u % 2})


def test_the_last_vertex_sum_matches_the_whole_table():
    rng = Random(1985)
    graphs = [LabeledGraph(0), LabeledGraph(1), LabeledGraph(2), complete(2)]
    graphs += [complete_minus_matching(n) for n in range(2, 15, 2)]
    while len(graphs) < 100:
        n = rng.randint(0, 14)
        graph = graphcomp.random_graph(rng, n, rng.uniform(0.2, 0.9))
        if graphcomp._not_universal(n, graph.edges) == n:
            graphs.append(graph)
    assert {g.vertex_count for g in graphs} == set(range(15))
    for graph in graphs:
        nbr, n = graph.neighbor_masks(), graph.vertex_count
        expected = graphcomp._subset_ways(nbr)[-1]
        assert graphcomp._subset_ways(nbr, True)[-1] == expected, sorted(graph.edges)
        if graphcomp._not_universal(n, graph.edges) == n:  # the route of count_compositions_graph
            assert graphcomp.count_compositions_graph(graph) == expected


@pytest.mark.parametrize("n", [16, 18])
def test_complete_graphs_minus_a_perfect_matching_fill_the_widest_fields(n):
    # no vertex is universal, so the table runs on all n vertices, with the
    # widest ranks the budget admits there; the closed form is the signed
    # Bell sum over the matching's edges
    expected = sum((-1) ** j * math.comb(n // 2, j) * exactnum.bell(n - 2 * j) for j in range(n // 2 + 1))
    graph = complete_minus_matching(n)
    assert graphcomp._not_universal(n, graph.edges) == n
    assert graphcomp.count_compositions_graph(graph) == expected
    assert graphcomp._subset_ways(graph.neighbor_masks())[-1] == expected


def test_the_moebius_pass_inverts_the_zeta_pass():
    rng = Random(1967)
    for m in range(9):
        values = [rng.getrandbits(rng.randint(0, 300)) for _ in range(1 << m)]
        summed = list(values)
        graphcomp._zeta(summed, operator.add)
        assert summed == [sum(values[t] for t in range(1 << m) if t & s == t) for s in range(1 << m)]
        graphcomp._zeta(summed, operator.sub)
        assert summed == values
    for m in (11, 12):  # past 2 PACKED_CHUNK entries, a pass goes in bands and chunks
        values = [rng.getrandbits(64) for _ in range(1 << m)]
        expected = list(values)
        for j in range(m):
            for s in range(1 << m):
                if s >> j & 1:
                    expected[s] += expected[s ^ 1 << j]
        summed = list(values)
        graphcomp._zeta(summed, operator.add)
        assert summed == expected
        graphcomp._zeta(summed, operator.sub)
        assert summed == values


# --- enumeration oracle ---------------------------------------------------------------

def test_enumeration_small_graphs():
    assert graphcomp.enumerate_graph_compositions(LabeledGraph(1)) == [((0,),)]
    assert graphcomp.enumerate_graph_compositions(complete(2)) == [
        ((0,), (1,)),
        ((0, 1),),
    ]
    p3 = graphcomp.enumerate_graph_compositions(path(3))
    assert p3 == [
        ((0,), (1,), (2,)),
        ((0,), (1, 2)),
        ((0, 1), (2,)),
        ((0, 1, 2),),
    ]


def test_enumeration_blocks_are_connected_partitions():
    g = graphcomp.build_family("cycle", 5)
    for blocks in graphcomp.enumerate_graph_compositions(g):
        seen = [v for block in blocks for v in block]
        assert sorted(seen) == list(range(5))
        for block in blocks:
            assert graphcomp.is_connected(g, block)


def test_enumeration_matches_dp():
    rng = Random(7)
    graphs = [path(n) for n in range(8)]
    graphs += [complete(n) for n in range(1, 7)]
    graphs += [graphcomp.build_family("cycle", n) for n in (3, 4, 5, 6)]
    graphs += [graphcomp.random_graph(rng, n, 0.4) for n in (4, 5, 6, 7, 8)]
    pairs = list(combinations(range(5), 2))
    graphs += [LabeledGraph(5, {pair for i, pair in enumerate(pairs) if bits >> i & 1})
               for bits in range(1 << len(pairs))]  # every graph on 5 vertices
    for g in graphs:
        assert graphcomp.count_compositions_graph(g) == len(
            graphcomp.enumerate_graph_compositions(g)
        )


class _Listed(Exception):
    """Raised by a patched enumerator: the listing was priced and let through."""


def _listed(*args):
    raise _Listed


def test_enumeration_scale_guard(monkeypatch):
    # priced only: 11 vertices are admitted (K_11 lists in about 6.7 s), 12 refused
    monkeypatch.setattr(graphcomp, "_set_partitions_masks", _listed)
    for graph in (path(11), complete(11)):
        with pytest.raises(_Listed):
            graphcomp.enumerate_graph_compositions(graph)
    for graph in (path(12), complete(12), LabeledGraph(40)):
        with pytest.raises(ResourceLimitError, match=f"the set partitions of {graph.vertex_count} vertices needs"):
            graphcomp.enumerate_graph_compositions(graph)


def test_a_listing_refused_at_its_lower_bound_never_finds_its_bell_number(monkeypatch):
    # Bell(n) >= 2^(n-1): 40 vertices are refused at that bound, before Bell(40)
    monkeypatch.setattr(exactnum, "bell", _listed)
    with pytest.raises(ResourceLimitError, match="the set partitions of 40 vertices needs"):
        graphcomp.enumerate_graph_compositions(LabeledGraph(40))
    for n in (2769, 10 ** 400):
        with pytest.raises(ResourceLimitError, match="too large to price"):
            graphcomp.enumerate_graph_compositions(LabeledGraph(n))


@pytest.mark.parametrize("listing, args", [
    (compositions.enumerate_compositions, (8, 24)),
    (exactnum.stirling2_via_compositions, (60, 30)),
    (exactnum.stirling1_via_compositions, (60, 30)),
    (exactnum.binomial_via_partition_multiplicities, (200, 15)),
    (graphcomp.enumerate_graph_compositions, (path(12),)),
], ids=["compositions", "stirling2", "stirling1", "binomial", "graph"])
def test_over_budget_listings_are_refused_before_their_first_item(monkeypatch, listing, args):
    monkeypatch.setattr(exactnum, "nested_parts", _listed)
    monkeypatch.setattr(graphcomp, "_set_partitions_masks", _listed)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="needs an estimated .* over the budget of"):
        listing(*args)
    assert time.perf_counter() - start < 1


def test_the_graph_listing_refusal_moves_with_the_budget(monkeypatch):
    monkeypatch.setattr(errors, "WORK_BUDGET", 1e7)
    assert len(graphcomp.enumerate_graph_compositions(path(8))) == 2 ** 7
    with pytest.raises(ResourceLimitError, match="the set partitions of 9 vertices needs"):
        graphcomp.enumerate_graph_compositions(path(9))
    # no vertex cap is left: within a larger budget, 12 and 13 vertices are listed
    monkeypatch.setattr(errors, "WORK_BUDGET", 1e12)
    monkeypatch.setattr(errors, "MEMORY_BUDGET", 1e12)
    monkeypatch.setattr(graphcomp, "_set_partitions_masks", _listed)
    for n in (12, 13):
        with pytest.raises(_Listed):
            graphcomp.enumerate_graph_compositions(path(n))


def test_complete_bipartite_two_three():
    g = LabeledGraph(5, {(u, v) for u in (0, 1) for v in (2, 3, 4)})
    assert graphcomp.count_compositions_graph(g) == len(
        graphcomp.enumerate_graph_compositions(g)
    )


# --- families -------------------------------------------------------------------------

def test_family_count_values():
    assert graphcomp.family_count("ladder", 1) == 2
    assert graphcomp.family_count("ladder", 2) == 12
    assert graphcomp.family_count("ladder", 3) == 74
    assert graphcomp.family_count("complete_minus_edge", 4) == 13
    assert graphcomp.family_count("complete_minus_edge", 2) == 1
    assert graphcomp.family_count("path", 0) == 1
    assert graphcomp.family_count("tree", 0) == 1
    assert graphcomp.family_count("complete", 0) == 1


def test_family_domain_errors():
    with pytest.raises(ValueError):
        graphcomp.family_count("cycle", 2)
    with pytest.raises(ValueError):
        graphcomp.family_count("ladder", 0)
    with pytest.raises(ValueError):
        graphcomp.family_count("complete_minus_edge", 1)
    with pytest.raises(ValueError):
        graphcomp.family_count("mystery", 3)
    with pytest.raises(ValueError):
        graphcomp.build_family("path", -1)


def test_build_family_shapes():
    ladder2 = graphcomp.build_family("ladder", 2)
    assert ladder2.vertex_count == 4
    assert len(ladder2.edges) == 4
    assert graphcomp.build_family("cycle", 3) == complete(3)
    single = graphcomp.build_family("path", 1)
    assert single.vertex_count == 1 and not single.edges
    for n in range(1, 8):
        ladder = graphcomp.build_family("ladder", n)
        assert ladder.vertex_count == 2 * n
        assert len(ladder.edges) == 3 * n - 2
    for n in range(1, 10):
        tree = graphcomp.build_family("tree", n)
        assert len(tree.edges) == n - 1
        assert graphcomp.is_connected(tree, range(n))


def test_family_counts_match_dp():
    cases = [
        ("path", range(12)),
        ("tree", range(12)),
        ("complete", range(9)),
        ("complete_minus_edge", range(2, 9)),
        ("cycle", range(3, 12)),
        ("ladder", range(1, 6)),
    ]
    for family, sizes in cases:
        for n in sizes:
            built = graphcomp.build_family(family, n)
            assert graphcomp.count_compositions_graph(built) == graphcomp.family_count(family, n)


# --- ladder closed form ----------------------------------------------------------------

def test_ladder_binet_values():
    assert graphcomp.ladder_binet(1) == 2
    assert graphcomp.ladder_binet(2) == 12
    assert graphcomp.ladder_binet(4) == 456


def test_ladder_binet_matches_recurrence():
    # every bit pattern of n up to 10 bits, as the power squares over them
    older, newer = 2, 12
    for n in range(1, 1025):
        assert graphcomp.ladder_binet(n) == graphcomp.family_count("ladder", n) == older
        older, newer = newer, 6 * newer + older


def test_ladder_binet_rejects_zero():
    with pytest.raises(ValueError):
        graphcomp.ladder_binet(0)


# --- multiplicative reduction -------------------------------------------------------------

def test_reduce_known_examples():
    two_edges = LabeledGraph(4, {(0, 1), (2, 3)})
    assert graphcomp.reduce_and_count(two_edges) == 4
    shared_vertex = LabeledGraph(5, {(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)})
    assert graphcomp.reduce_and_count(shared_vertex) == 25
    bridged = LabeledGraph(6, {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)})
    assert graphcomp.reduce_and_count(bridged) == 50
    windmill = LabeledGraph(11, {e for i in range(5) for e in
                                 ((0, 2 * i + 1), (0, 2 * i + 2), (2 * i + 1, 2 * i + 2))})
    assert graphcomp.reduce_and_count(windmill) == 5 ** 5


def test_reduce_matches_dp_on_random_graphs():
    rng = Random(20240)
    for _ in range(40):
        n = rng.randint(1, 11)
        g = graphcomp.random_graph(rng, n, rng.uniform(0.1, 0.5))
        assert graphcomp.reduce_and_count(g) == graphcomp.count_compositions_graph(g)


def test_reduce_handles_large_reducible_graphs():
    # a long path splits at bridges, so the 2^n state space is never touched
    assert graphcomp.reduce_and_count(path(40)) == 1 << 39
    tall_tree = graphcomp.build_family("tree", 33)
    assert graphcomp.reduce_and_count(tall_tree) == 1 << 32
    # deeper than the interpreter's recursion limit
    assert graphcomp.reduce_and_count(path(10 ** 4)) == 1 << (10 ** 4 - 1)


def test_reduce_multiplies_many_blocks_without_a_growing_product():
    n = 2 * 10 ** 5
    assert graphcomp.reduce_and_count(path(n)) == 1 << (n - 1)
    # a chain of 10^4 triangles, each sharing one vertex with the next
    triangles = LabeledGraph(2 * 10 ** 4 + 1, {e for i in range(0, 2 * 10 ** 4, 2)
                                               for e in ((i, i + 1), (i + 1, i + 2), (i, i + 2))})
    assert graphcomp.reduce_and_count(triangles) == 5 ** (10 ** 4)


def _glued_graph(rng):
    """Components glued from cycles, ladders, complete graphs, cycles with two
    crossing chords and bridges, each piece sharing one vertex with what is
    already there, under a random relabelling. Returns the graph, the product
    of the pieces' counts (by their family's closed form, or by the subset DP
    for the crossed cycles), and the vertex counts of the pieces that are not
    bridges."""
    edges = []
    vertex_count = 0
    expected = 1
    block_sizes = []
    pieces = [("cycle", 3, 8), ("ladder", 2, 4), ("complete", 3, 6), ("path", 2, 2), ("crossed", 8, 12)]

    def attach(at):
        nonlocal vertex_count, expected
        family, low, high = rng.choice(pieces)
        size = rng.randint(low, high)
        if family == "crossed":
            piece = crossed_cycle(size)
            expected *= graphcomp._subset_ways(piece.neighbor_masks())[-1]
        else:
            piece = graphcomp.build_family(family, size)
            expected *= graphcomp.family_count(family, size)
        # vertex 0 of the piece is the shared vertex, the rest are new
        label = [at] + list(range(vertex_count, vertex_count + piece.vertex_count - 1))
        vertex_count += piece.vertex_count - 1
        edges.extend((label[u], label[v]) for u, v in piece.edges)
        if piece.vertex_count > 2:
            block_sizes.append(piece.vertex_count)

    for _ in range(4):
        hub = vertex_count
        vertex_count += 1
        for _ in range(3):  # a cut vertex shared by at least three blocks
            attach(hub)
        for _ in range(30):
            attach(rng.randrange(hub, vertex_count))
    vertex_count += 5  # isolated vertices
    relabel = list(range(vertex_count))
    rng.shuffle(relabel)
    graph = LabeledGraph(vertex_count, {(relabel[u], relabel[v]) for u, v in edges})
    return graph, expected, block_sizes


class CountingMemo(dict):
    """A block memo that counts its hits."""

    hits = 0

    def pop(self, key, default=None):
        found = super().pop(key, default)
        self.hits += found is not None
        return found


ROUTES = ("memo", "series-parallel", "frontier", "subset")  # the routes of _count_block


def _record_blocks(monkeypatch):
    """Route every block through a recorder of _count_block, from an empty
    block memo that counts its hits; returns the list that gets, for each
    block, its route (one of ROUTES), its n and DFS-labelled edges, and its
    count."""
    monkeypatch.setitem(errors.KEPT, "blocks", CountingMemo())
    recorded = []
    count_block = graphcomp._count_block

    def recording(n, edges):
        count, route = count_block(n, edges)
        recorded.append((route, n, edges, count))
        return count, route

    monkeypatch.setattr(graphcomp, "_count_block", recording)
    return recorded


def _routes(recorded, *routes):
    """The sizes of the recorded blocks of these routes, in order."""
    return [n for route, n, *_ in recorded if route in routes]


def _edges_of(adj):
    """The edges (a, b), a < b, of neighbour lists."""
    return [(a, b) for a, neighbours in enumerate(adj) for b in neighbours if a < b]


def _dfs_key(n, edges):
    return n, sum(1 << a * n + b for a, b in edges)


def test_reduce_matches_family_product_on_glued_graphs(monkeypatch):
    rng = Random(314)
    recorded = _record_blocks(monkeypatch)
    memo, count_block = errors.KEPT["blocks"], graphcomp._count_block

    def keys(n, edges):
        return _dfs_key(n, edges), graphcomp._refined_key(graphcomp._adjacency(n, edges))

    def checking(n, edges):
        # a counter runs only where the DFS key missed, and a DP only where
        # the refined key missed too
        kept = [key in memo for key in keys(n, edges)]
        count, route = count_block(n, edges)
        assert route == "memo" or not kept[0]
        assert route in ("memo", "series-parallel") or not kept[1]
        return count, route

    monkeypatch.setattr(graphcomp, "_count_block", checking)
    for _ in range(5):
        graph, expected, block_sizes = _glued_graph(rng)
        assert graph.vertex_count >= 300
        known, hits, first = set(memo), memo.hits, len(recorded)
        assert graphcomp.reduce_and_count(graph) == expected
        # each block with at least 3 vertices whose DFS key misses goes to the
        # router; one the series-parallel reductions count is kept under that
        # key alone, and one whose refined key misses too reaches exactly one
        # DP, once, and is then kept under both; every other block is a memo
        # hit, which adds at most its DFS key
        runs = [(route, n, *keys(n, edges)) for route, n, edges, _ in recorded[first:] if route != "memo"]
        counted = [(n, {key, refined}) for route, n, key, refined in runs if route != "series-parallel"]
        reduced = [(n, key) for route, n, key, _ in runs if route == "series-parallel"]
        new, missed = set(memo) - known, set().union(*(keys for _, keys in counted))
        reduced_keys = {key for _, key in reduced}
        assert missed | reduced_keys <= new and len(new - missed - reduced_keys) <= memo.hits - hits
        assert len(counted) + len(reduced) + memo.hits - hits == len(block_sizes)
        assert set(block_sizes) - {n for n, _ in known} <= {n for n, _ in counted + reduced} <= set(block_sizes)
        assert len(_routes(recorded[first:], "memo")) == memo.hits - hits
    assert {route for route, *_ in recorded} == set(ROUTES)


def test_reduce_routes_dense_blocks_to_the_subset_dp_and_thin_ones_to_the_frontier_dp(monkeypatch):
    recorded = _record_blocks(monkeypatch)
    for m in range(6, 12):
        assert graphcomp.reduce_and_count(complete(m)) == exactnum.bell(m)
    assert _routes(recorded, "subset") == list(range(6, 12)) == _routes(recorded, *ROUTES)
    recorded.clear()
    # thin blocks with a K_4 minor, where the reductions stall
    for n in (12, 13, 16, 20, 40):
        block = crossed_cycle(n)
        assert graphcomp.reduce_and_count(block) == per_state_frontier(block.adjacency(), range(n))
    for rows, columns in ((3, 4), (3, 10), (3, 30)):
        block = grid(rows, columns)
        by_columns = sorted(range(rows * columns), key=lambda v: (v % columns, v // columns))
        assert graphcomp.reduce_and_count(block) == per_state_frontier(block.adjacency(), by_columns)
    assert _routes(recorded, "frontier") == [12, 13, 16, 20, 40, 12, 30, 90] == _routes(recorded, *ROUTES)
    # cycles and ladders have no K_4 minor: from C_7 and 4 rungs on, where the
    # subset DP's price is over the frontier DP's least, the reductions count
    # them, and neither DP runs
    recorded.clear()
    for n in (7, 12, 13, 16, 20, 40, 100):
        assert graphcomp.reduce_and_count(graphcomp.build_family("cycle", n)) == (1 << n) - n
    for rungs in (4, 5, 6, 10, 30, 50):
        ladder = graphcomp.build_family("ladder", rungs)
        assert graphcomp.reduce_and_count(ladder) == graphcomp.ladder_binet(rungs)
    assert _routes(recorded, "series-parallel") == [7, 12, 13, 16, 20, 40, 100, 8, 10, 12, 20, 60, 100] \
        == _routes(recorded, *ROUTES)
    recorded.clear()
    for n in (3, 4, 5, 6):
        assert graphcomp.reduce_and_count(graphcomp.build_family("cycle", n)) == (1 << n) - n
    assert graphcomp.reduce_and_count(graphcomp.build_family("ladder", 3)) == graphcomp.ladder_binet(3)
    assert _routes(recorded, "subset") == [3, 4, 5, 6, 6] == _routes(recorded, *ROUTES)
    # pinned blocks of the benchmark on both sides of the two prices: the
    # frontier DP's state bound is loose on the denser ones
    recorded.clear()
    pinned = json.loads(PINNED_DENSE.read_text())
    for n, p in ((10, 0.7), (10, 0.4), (12, 0.4)):
        for entry in [e for e in pinned if e["n"] == n and e["p"] == p]:
            block = LabeledGraph(n, {tuple(edge) for edge in entry["edges"]})
            assert graphcomp.reduce_and_count(block) == int(entry["count"])
    assert _routes(recorded, "subset") == [10, 10, 10, 10, 12]
    assert _routes(recorded, "frontier") == [10, 10, 12, 12]
    assert not _routes(recorded, "series-parallel")


# --- the block memo --------------------------------------------------------------------------

def _glued(rng, blocks):
    """The blocks glued into one tree of blocks, each under a random
    relabelling and sharing one random vertex with those before it, with the
    whole graph randomly relabelled."""
    edges, vertex_count = [], 1
    for block in blocks:
        n = block.vertex_count
        label = [rng.randrange(vertex_count)] + list(range(vertex_count, vertex_count + n - 1))
        rng.shuffle(label)
        vertex_count += n - 1
        edges.extend((label[u], label[v]) for u, v in block.edges)
    return relabelled(LabeledGraph(vertex_count, set(edges)), rng)


def _pool(rng):
    """Blocks with their counts by the per-state frontier DP or the subset DP
    over every vertex: random blocks, cycles, ladders and complete graphs."""
    pool = []
    for _ in range(12):
        n = rng.randint(3, 12)
        block = graphcomp.random_connected_graph(rng, n, rng.uniform(0.1, 0.9))
        pool.append((block, graphcomp._subset_ways(block.neighbor_masks())[-1]))
    for family, sizes in (("cycle", range(3, 16)), ("ladder", range(2, 7))):
        for size in sizes:
            block = graphcomp.build_family(family, size)
            pool.append((block, per_state_frontier(block.adjacency(), range(block.vertex_count))))
    for m in range(3, 10):
        pool.append((complete(m), graphcomp._subset_ways(complete(m).neighbor_masks())[-1]))
    return pool


def test_warm_and_cold_block_memos_match_the_oracles(monkeypatch):
    rng = Random(1507)
    pool = _pool(rng)
    memo = CountingMemo()
    monkeypatch.setitem(errors.KEPT, "blocks", memo)
    for _ in range(8):
        picked = [rng.choice(pool) for _ in range(40)]
        graph = _glued(rng, [block for block, _ in picked])
        expected = math.prod(count for _, count in picked)
        assert graphcomp.reduce_and_count(graph) == expected  # warm
        memo.clear()
        assert graphcomp.reduce_and_count(graph) == expected  # cold
    assert memo.hits > 100


def _relabellings(graph, rng):
    """Every relabelling of a graph of at most 6 vertices, or 8 random ones of
    a larger graph; each also with a pendant vertex 0, through which the
    block split enters it at a random vertex."""
    n = graph.vertex_count
    perms = permutations(range(n)) if n <= 6 else (rng.sample(range(n), n) for _ in range(8))
    for perm in perms:
        yield LabeledGraph(n, {(perm[u], perm[v]) for u, v in graph.edges})
        yield LabeledGraph(n + 1, {(perm[u] + 1, perm[v] + 1) for u, v in graph.edges}
                           | {(0, rng.randint(1, n))})


def test_every_relabelling_of_a_cycle_or_complete_graph_is_one_memo_entry(monkeypatch):
    rng = Random(116)
    for family in ("cycle", "complete"):
        for n in range(3, graphcomp.BLOCK_MEMO_VERTICES + 1):
            memo = CountingMemo()
            monkeypatch.setitem(errors.KEPT, "blocks", memo)
            expected = graphcomp.family_count(family, n)
            graphs = list(_relabellings(graphcomp.build_family(family, n), rng))
            for graph in graphs:
                assert graphcomp.reduce_and_count(graph) == expected * (graph.vertex_count - n + 1)
            assert (len(memo), memo.hits) == (1, len(graphs) - 1)


def test_relabelled_pinned_blocks_mostly_reach_a_counter_once(monkeypatch):
    # ties inside a colour class follow the DFS labels, so where refinement
    # leaves a class of more than one vertex a copy may be counted again
    recorded = _record_blocks(monkeypatch)
    rng = Random(5454)
    once = 0
    for entry in json.loads(PINNED_DENSE.read_text()):
        block = LabeledGraph(entry["n"], {tuple(edge) for edge in entry["edges"]})
        before = len(_routes(recorded, "subset", "frontier"))
        for _ in range(8):
            assert graphcomp.reduce_and_count(relabelled(block, rng)) == int(entry["count"])
        once += len(_routes(recorded, "subset", "frontier")) == before + 1
    assert once >= 50 and not _routes(recorded, "series-parallel")


def test_blocks_that_colour_refinement_cannot_tell_apart_keep_their_own_counts(monkeypatch):
    # K_{3,3} and the triangular prism: both 3-regular on 6 vertices
    k33 = LabeledGraph(6, {(u, v) for u in range(3) for v in range(3, 6)})
    prism = LabeledGraph(6, {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)})
    counts = {graph: graphcomp._subset_ways(graph.neighbor_masks())[-1] for graph in (k33, prism)}
    assert counts[k33] != counts[prism]
    rng = Random(33)
    for first, second in ((k33, prism), (prism, k33)):
        errors.forget()
        for graph in (first, second) * 2:
            for _ in range(4):
                assert graphcomp.reduce_and_count(relabelled(graph, rng)) == counts[graph]


def _refined_key_refined_to_the_end(adj):
    """The refined key with refinement run until no class splits, even once
    every vertex has its own colour, and labels read from a dict: the
    oracle of _refined_key, which stops at the first discrete colouring."""
    n = len(adj)
    colours = list(map(len, adj))
    classes = len(set(colours))
    while True:
        signatures = [(c, tuple(sorted(colours[w] for w in nbrs))) for c, nbrs in zip(colours, adj)]
        rank = {signature: i for i, signature in enumerate(sorted(set(signatures)))}
        if len(rank) == classes:
            break
        colours, classes = [rank[signature] for signature in signatures], len(rank)
    label = dict(zip(sorted(range(n), key=lambda v: colours[v]), range(n)))
    return n, sum(1 << label[a] * n + label[b]
                  for a, neighbours in enumerate(adj) for b in neighbours if label[a] < label[b])


def test_the_refined_key_is_the_key_of_refinement_run_to_the_end(monkeypatch):
    monkeypatch.syspath_prepend(str(PINNED_DENSE.parent))
    import workloads  # the benchmark's generator, which reads no compcount code

    blocks = [block for text in workloads.generate("graph-dense", 7).files.values()
              for block in graphcomp._blocks(graphcomp.parse_edge_list(text))]
    assert len(blocks) == 150
    rng = Random(2025)
    regular = [graphcomp.build_family(family, size) for family, size in
               (("cycle", 9), ("ladder", 5), ("complete", 7), ("complete_minus_edge", 8))]
    regular += [LabeledGraph(6, {(u, v) for u in range(3) for v in range(3, 6)}), grid(4, 4)]
    while len(blocks) < 2150:
        graph = graphcomp.random_graph(rng, rng.randint(3, 14), rng.uniform(0.15, 0.9)) if len(blocks) % 4 \
            else relabelled(rng.choice(regular), rng)
        blocks += graphcomp._blocks(graph)
    for n, edges in blocks:
        adj = graphcomp._adjacency(n, edges)
        assert graphcomp._refined_key(adj) == _refined_key_refined_to_the_end(adj)


# The blocks of each route, by size, on the seed-7 graph workloads, each run
# from nothing kept. A change that moves a route updates this census and
# names the blocks that moved in CHANGES.md.
ROUTE_CENSUS = {
    "graph-sparse": {("memo", 3): 77, ("memo", 4): 225, ("memo", 5): 149, ("memo", 6): 218, ("memo", 7): 77,
                     ("memo", 8): 133, ("memo", 9): 75, ("memo", 10): 119, ("memo", 11): 74, ("memo", 12): 100,
                     ("memo", 13): 74, ("memo", 14): 72, ("series-parallel", 7): 1, ("series-parallel", 8): 17,
                     ("series-parallel", 9): 1, ("series-parallel", 10): 30, ("series-parallel", 11): 1,
                     ("series-parallel", 12): 50, ("series-parallel", 13): 1, ("series-parallel", 14): 1,
                     ("subset", 3): 1, ("subset", 4): 2, ("subset", 5): 2, ("subset", 6): 7},
    "graph-dense": {("frontier", 10): 2, ("frontier", 11): 4, ("frontier", 12): 2, ("memo", 10): 43,
                    ("memo", 11): 48, ("memo", 12): 4, ("memo", 13): 2, ("subset", 10): 15, ("subset", 11): 14,
                    ("subset", 12): 12, ("subset", 13): 4},
}


def test_the_graph_workloads_route_their_blocks_as_the_census_says(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PINNED_DENSE.parent))
    import workloads  # the benchmark's generator, which reads no compcount code

    monkeypatch.chdir(tmp_path)  # the workload's files sit under paths relative to it
    recorded = _record_blocks(monkeypatch)
    for name, census in ROUTE_CENSUS.items():
        workload = workloads.generate(name, 7)
        for file, text in workload.files.items():
            (tmp_path / file).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / file).write_text(text)
        errors.forget()
        recorded.clear()
        for query in workload.queries:
            assert cli.run(list(query.argv), io.StringIO(), io.StringIO()) == 0, query.argv
        assert Counter((route, n) for route, n, *_ in recorded) == census, name


def test_the_block_memo_stays_bounded_in_entries_and_key_bits(monkeypatch):
    rng = Random(5000)
    memo = CountingMemo()
    monkeypatch.setitem(errors.KEPT, "blocks", memo)
    # 9-cycles with random chords, each one block, kept where the sorted
    # (degree, sorted neighbour degrees) of their vertices is new, so that no
    # two are isomorphic
    cycle = graphcomp.build_family("cycle", 9).edges
    chords = [edge for edge in combinations(range(9), 2) if edge not in cycle]
    blocks = {}
    while len(blocks) < 5000:
        block = LabeledGraph(9, cycle | set(rng.sample(chords, rng.randint(2, 12))))
        adj = block.adjacency()
        shape = tuple(sorted((len(nbrs), tuple(sorted(len(adj[w]) for w in nbrs))) for nbrs in adj))
        blocks.setdefault(shape, block)
    graphcomp.reduce_and_count(_glued(rng, list(blocks.values())))
    assert memo.hits == 0
    assert len(memo) == graphcomp.BLOCK_MEMO_ENTRIES
    assert all(0 < bits < 1 << n * n for n, bits in memo)


def test_blocks_past_the_memo_vertex_bound_leave_it_untouched(monkeypatch):
    memo = CountingMemo()
    monkeypatch.setitem(errors.KEPT, "blocks", memo)
    assert graphcomp.reduce_and_count(complete(64)) == exactnum.bell(64)
    for m in (65, 600):
        assert graphcomp.reduce_and_count(complete(m)) == exactnum.bell(m)
    assert list(memo) == [(64, sum(1 << 64 * a + b for a, b in combinations(range(64), 2)))]
    assert memo.hits == 0
    assert graphcomp.reduce_and_count(complete(64)) == exactnum.bell(64)
    assert (len(memo), memo.hits) == (1, 1)


def test_a_refused_block_is_not_kept(monkeypatch):
    memo = CountingMemo()
    monkeypatch.setitem(errors.KEPT, "blocks", memo)
    block = complete_minus_cycle(12)
    budget = errors.WORK_BUDGET
    monkeypatch.setattr(errors, "WORK_BUDGET", 1e5)
    for _ in range(2):
        with pytest.raises(ResourceLimitError, match=r"the subset DP over 2\^12 vertex sets"):
            graphcomp.reduce_and_count(block)
        assert not memo and memo.hits == 0
    monkeypatch.setattr(errors, "WORK_BUDGET", budget)
    count = graphcomp.reduce_and_count(block)
    assert count == graphcomp._subset_ways(block.neighbor_masks())[-1]
    assert graphcomp.reduce_and_count(block) == count
    assert (len(memo), memo.hits) == (1, 1)


def test_each_counter_counts_the_block_its_memo_key_encodes(monkeypatch):
    recorded = _record_blocks(monkeypatch)
    memo = errors.KEPT["blocks"]
    rng = Random(1818)
    pool = _pool(rng)
    for _ in range(4):
        graphcomp.reduce_and_count(_glued(rng, [rng.choice(pool)[0] for _ in range(30)]))
    assert memo.hits > 20
    # the count of each counter run, by its DFS key and by its refined key
    counted = {_dfs_key(n, edges): count for route, n, edges, count in recorded if route != "memo"}
    refined = {graphcomp._refined_key(graphcomp._adjacency(n, edges)): count
               for route, n, edges, count in recorded if route in ("subset", "frontier")}
    assert counted.items() <= memo.items() and refined.items() <= memo.items()
    assert len(refined) < len(counted) < len(memo)
    # every key, DFS or refined, is the edge set of a block with the count it holds
    for (n, bits), count in memo.items():
        edges = [(a, b) for a, b in combinations(range(n), 2) if bits >> a * n + b & 1]
        assert _dfs_key(n, edges) == (n, bits)
        assert graphcomp._subset_ways(LabeledGraph(n, set(edges)).neighbor_masks())[-1] == count


def test_count_block_returns_the_route_of_each_count():
    cycle = sorted(graphcomp.build_family("cycle", 12).edges)
    crossed = crossed_cycle(12)
    assert graphcomp._count_block(12, cycle) == ((1 << 12) - 12, "series-parallel")
    assert graphcomp._count_block(6, sorted(complete(6).edges)) == (exactnum.bell(6), "subset")
    assert graphcomp._count_block(12, sorted(crossed.edges)) == \
        (per_state_frontier(crossed.adjacency(), range(12)), "frontier")
    # a memo hit under the DFS key, and one under the refined key alone: the
    # pinned block with its labels reversed has another DFS key
    assert graphcomp._count_block(12, cycle) == ((1 << 12) - 12, "memo")
    entry = json.loads(PINNED_DENSE.read_text())[0]
    n, count, edges = entry["n"], int(entry["count"]), sorted(map(tuple, entry["edges"]))
    reversed_edges = sorted((n - 1 - b, n - 1 - a) for a, b in edges)
    assert graphcomp._count_block(n, edges) in ((count, "subset"), (count, "frontier"))
    kept = dict(errors.KEPT["blocks"])
    assert _dfs_key(n, reversed_edges) not in kept
    assert graphcomp._count_block(n, reversed_edges) == (count, "memo")
    assert errors.KEPT["blocks"] == kept | {_dfs_key(n, reversed_edges): count}


def test_each_route_is_charged_by_whoever_runs_it_and_no_counter_body_prices_itself(monkeypatch):
    charges = []
    monkeypatch.setattr(graphcomp, "check_work", lambda what, *_, **__: charges.append(what))
    count_compositions_graph = graphcomp.count_compositions_graph

    def counting(graph):
        charges.append("count_compositions_graph")
        return count_compositions_graph(graph)

    monkeypatch.setattr(graphcomp, "count_compositions_graph", counting)
    monkeypatch.setitem(errors.KEPT, "blocks", {})

    def charged(n, edges):
        charges.clear()
        graphcomp._count_block(n, edges)
        return list(charges)

    cycle = max(graphcomp._blocks(graphcomp.build_family("cycle", 12)))
    assert charged(*cycle) == ["the series-parallel reductions of 12 vertices"]
    # the crossed cycle's vertices of degree 2 have the reductions tried
    # first; they stall on its K_4 minor, and the frontier DP is charged at
    # its least, then on its order
    crossed = max(graphcomp._blocks(crossed_cycle(12)))
    adj = graphcomp._adjacency(*crossed)
    order, widths = graphcomp._frontier_order(adj)
    states = graphcomp._frontier_price(widths)[1]
    assert charged(*crossed) == ["the series-parallel reductions of 12 vertices",
                                 "the frontier DP on 12 vertices and up to 3 states",
                                 f"the frontier DP on 12 vertices and up to {states:.3g} states"]
    assert charged(*max(graphcomp._blocks(complete(6)))) == ["count_compositions_graph",
                                                             "the subset DP over 2^0 vertex sets"]
    # a hit under the DFS key, and one under the refined key alone
    assert charged(*cycle) == []
    entry = json.loads(PINNED_DENSE.read_text())[0]
    n, edges = entry["n"], sorted(map(tuple, entry["edges"]))
    reversed_edges = sorted((n - 1 - b, n - 1 - a) for a, b in edges)
    charged(n, edges)
    assert _dfs_key(n, reversed_edges) not in errors.KEPT["blocks"]
    assert charged(n, reversed_edges) == []
    charges.clear()
    assert graphcomp._count_frontier(adj, order) == errors.KEPT["blocks"][_dfs_key(*crossed)]
    assert charges == []


# --- the series-parallel reductions ---------------------------------------------------------

def test_the_reductions_match_the_subset_dp_on_random_blocks():
    rng = Random(1965)
    blocks = []
    while len(blocks) < 2400:
        n = rng.randint(3, 12)
        graph = verify._partial_two_tree(rng, n, rng.uniform(0.6, 1)) if len(blocks) % 2 else \
            graphcomp.random_connected_graph(rng, n, rng.uniform(0, 0.6))
        block = max(graphcomp._blocks(graph), default=None)
        if block:
            blocks.append(block)
    reduced = 0
    for n, edges in blocks:
        count = graphcomp._series_parallel(n, edges)
        if verify._no_k4_minor(n, edges):
            assert count == graphcomp._subset_ways(LabeledGraph(n, edges).neighbor_masks())[-1], edges
            reduced += 1
        else:
            assert count is None, edges
    assert 1000 < reduced < 2200


def test_the_reductions_count_cycles_ladders_and_fans_by_their_closed_forms():
    for n in range(3, 30):
        assert graphcomp._series_parallel(n, list(graphcomp.build_family("cycle", n).edges)) == (1 << n) - n
    for rungs in range(1, 40):
        ladder = graphcomp.build_family("ladder", rungs)
        assert graphcomp._series_parallel(2 * rungs, list(ladder.edges)) == graphcomp.ladder_binet(rungs)
    fibonacci = [0, 1]
    while len(fibonacci) < 80:
        fibonacci.append(fibonacci[-1] + fibonacci[-2])
    for n in range(1, 39):  # the fan K_1 + P_n: vertex 0 joined to the path 1..n
        fan = {(0, v) for v in range(1, n + 1)} | {(v, v + 1) for v in range(1, n)}
        assert graphcomp._series_parallel(n + 1, list(fan)) == fibonacci[2 * n + 1]


def test_every_block_with_a_k4_minor_stalls_the_reductions_and_reaches_the_parent_counter(monkeypatch):
    wheel = LabeledGraph(6, {(0, v) for v in range(1, 6)} | {(v, v % 5 + 1) for v in range(1, 6)})
    k33 = LabeledGraph(6, {(u, v) for u in range(3) for v in range(3, 6)})
    blocks = [complete(4), complete(5), wheel, grid(3, 3), k33]
    blocks += [LabeledGraph(e["n"], {tuple(edge) for edge in e["edges"]})
               for e in json.loads(PINNED_DENSE.read_text())]
    tried = []  # what each try of the reductions gave
    series_parallel = graphcomp._series_parallel

    def trying(n, edges):
        tried.append(series_parallel(n, edges))
        return tried[-1]

    monkeypatch.setattr(graphcomp, "_series_parallel", trying)
    recorded = _record_blocks(monkeypatch)
    for block in blocks:
        n = block.vertex_count
        assert not verify._no_k4_minor(n, block.edges)
        assert series_parallel(n, list(block.edges)) is None
        errors.forget()
        recorded.clear()
        assert graphcomp.reduce_and_count(block) == graphcomp._subset_ways(block.neighbor_masks())[-1]
        assert _routes(recorded, "subset", "frontier") == [n]
    assert len(tried) > 5 and not any(tried)


def test_each_block_reaches_the_reductions_and_the_refined_key_at_most_once(monkeypatch):
    # crossed cycles have a K_4 minor and vertices of degree 2, so the
    # reductions are tried on them and stall; those within the memo's vertex
    # bound are then looked up under their refined key, the larger ones not
    crossed = (12, 20, 40, 64, 65, 80, 100)
    pool = [(crossed_cycle(n), graphcomp.count_compositions_frontier(crossed_cycle(n))) for n in crossed]
    pool += [(graphcomp.build_family("cycle", n), (1 << n) - n) for n in (5, 30, 70)]
    pool += [(graphcomp.build_family("ladder", rungs), graphcomp.ladder_binet(rungs)) for rungs in (3, 21, 45)]
    pool += [(complete(m), exactnum.bell(m)) for m in (7, 66)]
    # (n, edges or neighbour lists, ...) of each call, its edge list kept
    # alive; each routed block's edge list with the refined keys taken
    # before and after its route
    reductions, refined, routed = [], [], []
    series_parallel, refined_key = graphcomp._series_parallel, graphcomp._refined_key
    count_block = graphcomp._count_block

    def recording_reductions(n, edges):
        reductions.append((n, edges, series_parallel(n, edges)))
        return reductions[-1][-1]

    def recording_refined(adj):
        refined.append((len(adj), adj))
        return refined_key(adj)

    def recording_block(n, edges):
        before = len(refined)
        found = count_block(n, edges)
        routed.append((n, edges, before, len(refined)))
        return found

    monkeypatch.setattr(graphcomp, "_series_parallel", recording_reductions)
    monkeypatch.setattr(graphcomp, "_refined_key", recording_refined)
    monkeypatch.setattr(graphcomp, "_count_block", recording_block)
    rng = Random(64)
    for _ in range(3):
        errors.forget()
        picked = pool + [rng.choice(pool) for _ in range(10)]  # repeats, which the memo may hold
        rng.shuffle(picked)
        reductions.clear()
        refined.clear()
        routed.clear()
        assert graphcomp.reduce_and_count(_glued(rng, [block for block, _ in picked])) \
            == math.prod(count for _, count in picked)
        for calls in (reductions, routed):  # no block's edge list twice
            assert len({id(edges) for _, edges, *_ in calls}) == len(calls)
        # every refined key is taken by a routed block, at most one a block
        assert all(after - before <= 1 for *_, before, after in routed)
        assert sum(after - before for *_, before, after in routed) == len(refined)
        assert {n for n, _, count in reductions if count is None} == set(crossed)
        assert {n for n, _, count in reductions if count is not None} == {30, 70, 42, 90}
        assert {n for n, _ in refined} == {12, 20, 40, 64, 5, 6, 7}
        # the blocks within the memo's bound where the reductions stall are
        # looked up under their refined key
        stalled = {(n, frozenset(edges)) for n, edges, count in reductions if count is None and n <= 64}
        assert stalled and stalled <= {(n, frozenset(_edges_of(adj))) for n, adj in refined}


def test_the_reductions_are_not_tried_where_their_price_is_above_the_frontier_dps_least(monkeypatch):
    # so ladders of more than about 18,200 rungs go to the frontier DP, and
    # from 37,500 to 42,800 rungs only its price fits the budget
    recorded = _record_blocks(monkeypatch)
    cycle = graphcomp.build_family("cycle", 40)
    monkeypatch.setattr(graphcomp, "SERIES_PARALLEL_OPERATIONS", 1e4)
    assert graphcomp.reduce_and_count(cycle) == (1 << 40) - 40
    assert _routes(recorded, "frontier") == [40] == _routes(recorded, *ROUTES)


def test_a_random_two_tree_of_ten_thousand_vertices_is_counted_under_the_default_budget():
    rng = Random(10000)
    two_tree = verify._partial_two_tree(rng, 10000, keep=1)
    assert len(two_tree.edges) == 2 * 10000 - 3
    start = time.perf_counter()
    count = graphcomp.reduce_and_count(two_tree)
    assert time.perf_counter() - start < 5
    assert 1 << 9999 < count < 1 << len(two_tree.edges)
    # another labelling reduces the vertices in another order
    assert graphcomp.reduce_and_count(relabelled(two_tree, rng)) == count


# --- the block split -------------------------------------------------------------------------

def _oracle_blocks(graph):
    """The blocks as edge sets, found without a DFS: two edges share a block
    exactly when no one vertex taken out of the graph separates them, an
    edge at the vertex taken out going with its other end."""
    n = graph.vertex_count
    adj = graph.adjacency()
    sides = {edge: [] for edge in graph.edges}
    for x in range(n):
        component = [-1] * n
        for start in range(n):
            if start == x or component[start] != -1:
                continue
            component[start] = start
            reached = [start]
            for v in reached:
                for w in adj[v]:
                    if w != x and component[w] == -1:
                        component[w] = start
                        reached.append(w)
        for u, v in graph.edges:
            sides[u, v].append(component[v if u == x else u])
    blocks = {}
    for edge, side in sides.items():
        blocks.setdefault(tuple(side), set()).add(edge)
    return list(blocks.values())


def _maps_onto(n, edges, target):
    """Whether some bijection of 0..n-1 onto the vertices of the edge set
    target takes edges onto it, by backtracking in label order: label b goes
    to a vertex whose neighbours among the images of 0..b-1 are exactly the
    images of b's neighbours there."""
    neighbours = {}
    for u, v in target:
        neighbours.setdefault(u, set()).add(v)
        neighbours.setdefault(v, set()).add(u)
    earlier = [[] for _ in range(n)]
    for a, b in edges:
        earlier[b].append(a)

    def extend(image):
        b = len(image)
        if b == n:
            return True
        candidates = neighbours[image[earlier[b][0]]] if earlier[b] else neighbours
        linked = {image[a] for a in earlier[b]}
        return any(x not in image and neighbours[x].intersection(image) == linked
                   and extend(image + [x]) for x in candidates)

    return len(neighbours) == n and len(edges) == len(target) and extend([])


def test_random_tree_refuses_a_negative_vertex_count():
    with pytest.raises(ValueError, match="vertex count must be nonnegative"):
        graphcomp.random_tree(Random(0), -1)


def test_the_block_split_yields_each_block_under_its_dfs_labels():
    rng = Random(1973)
    pool = _pool(rng)
    graphs = [_glued(rng, [rng.choice(pool)[0] for _ in range(12)]) for _ in range(6)]
    graphs += [relabelled(graphcomp.build_family(family, size), rng)
               for family, sizes in (("cycle", (3, 9, 30)), ("ladder", (2, 7)), ("complete", (3, 8)))
               for size in sizes]
    trees = [graphcomp.random_tree(rng, n) for n in (1, 2, 7, 20)]
    forest, offset = set(), 0
    for tree in trees:
        forest |= {(u + offset, v + offset) for u, v in tree.edges}
        offset += tree.vertex_count
    graphs += [LabeledGraph(6), relabelled(LabeledGraph(offset + 3, forest), rng)]
    for graph in graphs:
        _assert_the_split_matches_the_oracle(graph)
    assert not list(graphcomp._blocks(LabeledGraph(6)))
    assert not list(graphcomp._blocks(graphs[-1]))


def _assert_the_split_matches_the_oracle(graph):
    """_blocks yields each block of 3 or more vertices that _oracle_blocks
    finds, once, under DFS labels: 0..n-1 in order of first appearance,
    with a < b on every edge."""
    blocks = list(graphcomp._blocks(graph))
    oracle = [block for block in _oracle_blocks(graph) if len(block) > 1]  # bridges yield nothing
    assert len(blocks) == len(oracle)
    for n, edges in blocks:
        assert list(dict.fromkeys(v for edge in edges for v in edge)) == list(range(n))
        assert all(a < b for a, b in edges)
        # each block is one of the graph's, and no two are the same one
        match = next(target for target in oracle if _maps_onto(n, edges, target))
        oracle.remove(match)
    assert all(n >= 3 for n, _ in blocks)


def _forest(rng, sizes, isolated):
    """Random trees of these sizes and `isolated` more vertices side by side,
    under a random relabelling."""
    edges, offset = set(), 0
    for n in sizes:
        edges |= {(u + offset, v + offset) for u, v in graphcomp.random_tree(rng, n).edges}
        offset += n
    return relabelled(LabeledGraph(offset + isolated, edges), rng)


def _record_forest_answers(monkeypatch):
    """Route every call of _is_forest through a recorder; returns the list
    of its answers."""
    answers = []
    is_forest = graphcomp._is_forest

    def recording(n, edges):
        answers.append(is_forest(n, edges))
        return answers[-1]

    monkeypatch.setattr(graphcomp, "_is_forest", recording)
    return answers


def test_a_forest_yields_no_block_and_counts_two_to_the_power_of_its_edges(monkeypatch):
    rng = Random(1984)
    forests = [LabeledGraph(0), LabeledGraph(1), LabeledGraph(2), path(2)]
    forests += [_forest(rng, [rng.randint(1, 30) for _ in range(rng.randint(1, 6))], rng.randint(0, 5))
                for _ in range(40)]
    answers = _record_forest_answers(monkeypatch)
    for graph in forests:
        assert not list(graphcomp._blocks(graph))
        assert graphcomp.reduce_and_count(graph) == 1 << len(graph.edges)
        if graph.vertex_count <= 12:
            assert graphcomp.count_compositions_graph(graph) == 1 << len(graph.edges)
    # every forest but the empty graph, whose m = n = 0, was found by union-find, twice
    assert answers == [True] * 2 * (len(forests) - 1)


def _closing_last(rng, n, isolated):
    """A random tree on n vertices plus one more edge, beside `isolated`
    vertices, drawn until the edge set iterates that edge last, so that
    union-find meets the one cycle at the graph's last edge. The tree is
    drawn anew each time: a tree edge may hold the set's last slot."""
    while True:
        tree = graphcomp.random_tree(rng, n)
        extra = tuple(sorted(rng.sample(range(n), 2)))
        graph = LabeledGraph(n + isolated, tree.edges | {extra})
        if extra not in tree.edges and list(graph.edges)[-1] == extra:
            return graph


def test_a_graph_of_fewer_edges_than_vertices_with_a_cycle_yields_the_oracles_blocks(monkeypatch):
    rng = Random(1985)
    graphs = [relabelled(LabeledGraph(n, {(0, 1), (1, 2), (0, 2)}), rng) for n in (4, 7)]
    for size in (4, 9, 16):  # a cycle and a tree side by side: n - 1 edges
        tree = {(u + size, v + size) for u, v in graphcomp.random_tree(rng, 12).edges}
        graphs.append(relabelled(LabeledGraph(size + 12, graphcomp.build_family("cycle", size).edges | tree), rng))
    graphs += [_closing_last(rng, n, isolated) for n, isolated in ((5, 1), (12, 2), (20, 1))]
    answers = _record_forest_answers(monkeypatch)
    for graph in graphs:
        assert len(graph.edges) < graph.vertex_count
        _assert_the_split_matches_the_oracle(graph)
    assert answers == [False] * len(graphs)


def _components(graph):
    """The number of connected components, by a search from each unreached vertex."""
    adj, reached, components = graph.adjacency(), set(), 0
    for start in range(graph.vertex_count):
        if start not in reached:
            components += 1
            reached.add(start)
            stack = [start]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in reached:
                        reached.add(w)
                        stack.append(w)
    return components


def test_union_find_finds_a_forest_exactly_where_m_is_n_minus_the_components():
    rng = Random(1986)
    answers = Counter()
    for _ in range(3000):
        n = rng.randint(0, 14)
        graph = graphcomp.random_graph(rng, n, rng.uniform(0, 0.35))
        edges = list(graph.edges)
        rng.shuffle(edges)
        forest = graphcomp._is_forest(n, edges)
        assert forest == (len(edges) == n - _components(graph))
        answers[forest] += 1
    assert min(answers[True], answers[False]) > 800


def test_a_random_recursive_tree_of_200000_vertices_counts_without_recursion(monkeypatch):
    rng = Random(1987)
    n = 2 * 10 ** 5
    tree = relabelled(LabeledGraph(n, {(rng.randrange(v), v) for v in range(1, n)}), rng)
    answers = _record_forest_answers(monkeypatch)
    frame, depth = sys._getframe(), 0
    while frame:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 20)  # room for the calls, none for a search that recurses
    try:
        count = graphcomp.reduce_and_count(tree)
    finally:
        sys.setrecursionlimit(limit)
    assert count == 1 << (n - 1) and answers == [True]


# --- the universal-vertex route --------------------------------------------------------------

def _with_universal(rng, n, p, planted):
    """A random graph in which `planted` random vertices are joined to all others."""
    hubs = rng.sample(range(n), planted)
    joins = {(min(h, v), max(h, v)) for h in hubs for v in range(n) if v != h}
    return LabeledGraph(n, graphcomp.random_graph(rng, n, p).edges | joins)


def test_universal_route_matches_subset_dp_and_enumeration_on_dense_graphs():
    rng = Random(1967)
    for trial in range(320):
        n = rng.randint(0, 12)
        graph = _with_universal(rng, n, rng.uniform(0.5, 0.97), rng.randint(0, n // 3) if trial % 2 else 0)
        count = graphcomp.count_compositions_graph(graph)
        assert count == graphcomp._subset_ways(graph.neighbor_masks())[-1], sorted(graph.edges)
        if n <= 8:
            assert count == len(graphcomp.enumerate_graph_compositions(graph)), sorted(graph.edges)
    for n in (9, 10):
        graph = _with_universal(rng, n, 0.6, 2)
        assert graphcomp.count_compositions_graph(graph) == \
            len(graphcomp.enumerate_graph_compositions(graph))


def test_universal_route_gives_the_closed_forms_of_dense_families():
    for n in list(range(40)) + [100, 200]:
        graph = complete(n)
        start = time.perf_counter()
        assert graphcomp.reduce_and_count(graph) == exactnum.bell(n)
        assert time.perf_counter() - start < 1
    for n in range(2, 40):
        k_minus_e = graphcomp.build_family("complete_minus_edge", n)
        assert graphcomp.reduce_and_count(k_minus_e) == exactnum.bell(n) - exactnum.bell(n - 2)
    assert graphcomp.count_compositions_graph(complete(30)) == exactnum.bell(30)
    # K_n minus t disjoint edges at random vertices: each edge is a disconnected pair, so g = (1 - x^2)^t
    rng = Random(2001)
    for n in range(41):
        for t in range(min(6, n // 2) + 1):
            ends = rng.sample(range(n), 2 * t)
            missing = {(min(pair), max(pair)) for pair in zip(ends[::2], ends[1::2])}
            graph = LabeledGraph(n, set(combinations(range(n), 2)) - missing)
            expected = sum((-1) ** j * math.comb(t, j) * exactnum.bell(n - 2 * j) for j in range(t + 1))
            assert graphcomp.count_compositions_graph(graph) == graphcomp.reduce_and_count(graph) == expected, (n, t)
    # the star K_{1,m}: its centre is universal, and each leaf joins the centre's block or stays alone
    for m in range(16):
        star = LabeledGraph(m + 1, {(0, leaf) for leaf in range(1, m + 1)})
        assert graphcomp.count_compositions_graph(star) == graphcomp.reduce_and_count(star) == 2 ** m, m


def test_universal_route_caps_the_vertices_that_are_not_universal(monkeypatch):
    # K_30 minus a perfect matching: no vertex is universal
    matching = LabeledGraph(30, set(combinations(range(30), 2)) - {(i, i + 1) for i in range(0, 30, 2)})
    with pytest.raises(ResourceLimitError, match=r"the subset DP over 2\^30 vertex sets needs"):
        graphcomp.count_compositions_graph(matching)
    # K_40 minus a 10-edge matching: 20 vertices that are not universal, one
    # past the 19 that K19 minus a Hamiltonian cycle shows are admitted
    matching = LabeledGraph(40, set(combinations(range(40), 2)) - {(i, i + 1) for i in range(0, 20, 2)})
    with pytest.raises(ResourceLimitError, match=r"the subset DP over 2\^20 vertex sets needs"):
        graphcomp.count_compositions_graph(matching)
    # the Bell sum over the universal vertices is priced as bell(n), whatever
    # bell's memo and the kept Bell numbers hold
    graph = complete(40)
    for warm in (False, True):
        if warm:
            exactnum.bell(40)
        monkeypatch.setattr(errors, "WORK_BUDGET", 1e4)
        with pytest.raises(ResourceLimitError, match=r"bell\(40\) needs"):
            graphcomp.count_compositions_graph(graph)
        monkeypatch.undo()


def test_the_subset_side_prices_itself_before_building_its_masks():
    # the neighbour masks of a 20000-vertex path alone hold about 29 MB
    graph = path(20000)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=r"the subset DP over 2\^20000 vertex sets"):
            graphcomp.count_compositions_graph(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


@pytest.mark.parametrize("count, n", [(graphcomp.count_compositions_graph, 10 ** 400),
                                      (graphcomp.count_compositions_frontier, 10 ** 308 - 1),
                                      (graphcomp.count_compositions_frontier, 10 ** 400)])
def test_the_public_counters_price_themselves_before_any_list_of_a_vertex_each(count, n):
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        count(LabeledGraph(n))
    assert time.perf_counter() - start < 1


def test_an_estimate_of_infinite_steps_reads_inf_and_one_of_nan_is_refused():
    with pytest.raises(ResourceLimitError, match="needs an estimated inf word steps and inf MB"):
        graphcomp.count_compositions_graph(path(20000))
    with pytest.raises(ResourceLimitError, match="needs an estimated inf word steps"):
        errors.check_work("x", math.inf, math.inf, held=1, printed=0)
    for operations, held in ((math.nan, 1), (1, math.nan)):
        with pytest.raises(ResourceLimitError, match="nan"):
            errors.check_work("x", operations, 10, held=held, printed=0)


@pytest.mark.parametrize("n", [0, 1, 2, 19, 20, 600, 601, 10 ** 6])
def test_the_subset_charge_is_finite_up_to_its_cutoff_and_infinite_past_it(n):
    # count_compositions_graph and _count_block read it outside errors.pricing,
    # so it raises nothing, at n = 0 (no log2(0)) or past a float's range
    what, *estimates = graphcomp._subset_charge(n)
    assert what == f"the subset DP over 2^{n} vertex sets"
    assert all(type(estimate) is float for estimate in estimates)
    assert all(map(math.isfinite, estimates)) if n <= 600 else estimates == [math.inf] * 3


def test_a_block_the_subset_side_must_win_builds_no_frontier_order(monkeypatch):
    def no_order(adj):
        raise AssertionError("the frontier order was built")

    monkeypatch.setattr(graphcomp, "_frontier_order", no_order)
    assert graphcomp.reduce_and_count(complete(120)) == exactnum.bell(120)
    assert graphcomp.reduce_and_count(graphcomp.build_family("cycle", 4)) == 12


class _Started(Exception):
    """Raised by a patched DP loop: its counter was chosen and its price fit."""


def _largest_block(graph):
    """A biconnected block of the graph with the most vertices, as _blocks labels it."""
    return LabeledGraph(*max(graphcomp._blocks(graph)))


def _routing_blocks():
    """Blocks of 300 random connected graphs of 8-16 vertices at p = .1-.7
    and of 60 random partial 2-trees of 8-40 vertices (those with at least 3
    vertices), cycles, ladders, grids and the pinned dense blocks of the
    benchmark."""
    rng = Random(17)
    blocks = [_largest_block(graphcomp.random_connected_graph(rng, rng.randint(8, 16),
                                                              rng.uniform(0.1, 0.7)))
              for _ in range(300)]
    blocks += [_largest_block(verify._partial_two_tree(rng, rng.randint(8, 40))) for _ in range(60)]
    blocks += [graphcomp.build_family("cycle", n) for n in range(4, 41, 3)]
    blocks += [graphcomp.build_family("ladder", rungs) for rungs in range(2, 21, 3)]
    blocks += [grid(rows, columns) for rows in (3, 4, 5, 6) for columns in (4, 8, 12)]
    blocks += [LabeledGraph(e["n"], {tuple(edge) for edge in e["edges"]})
               for e in json.loads(PINNED_DENSE.read_text())]
    return [block for block in blocks if block.vertex_count >= 3]


def _refused(price, *args):
    try:
        price(*args)
    except ResourceLimitError:
        return True
    return False


def test_each_block_goes_to_its_lower_priced_counter_and_is_refused_only_where_both_are(monkeypatch):
    # each DP loop is stopped as it starts, after its counter was charged;
    # the series-parallel reductions, priced before they start, run to their
    # end and are stopped there where they count the block
    def started(counter):
        def stop(*_):
            raise _Started(counter)
        return stop

    series_parallel = graphcomp._series_parallel

    def reduced(n, edges):
        if series_parallel(n, edges) is None:
            return None
        raise _Started("series-parallel")

    monkeypatch.setattr(graphcomp, "_subset_ways", started("subset"))
    monkeypatch.setattr(graphcomp, "_successors", started("frontier"))
    monkeypatch.setattr(graphcomp, "_series_parallel", reduced)
    cases = []
    for block in _routing_blocks():
        n, edges = max(graphcomp._blocks(block))  # the labels reduce_and_count routes on
        m = len(edges)
        adj = graphcomp._adjacency(n, edges)
        h = sum(len(neighbours) < n - 1 for neighbours in adj)
        widths = graphcomp._frontier_order(adj)[1]
        step = graphcomp.FRONTIER_STEP_PRICE + errors.word_steps(1, graphcomp._count_bits(n, m))
        subset = errors.word_steps(*graphcomp._subset_charge(h)[1:3])
        lower = "subset" if subset <= step * graphcomp._frontier_price(widths)[0] else "frontier"
        # no order of a block has a frontier narrower than these widths
        least = step * graphcomp._frontier_price([0, 1] + [2] * (n - 2))[0]
        reductions = graphcomp._reductions_charge(n, m)
        if verify._no_k4_minor(n, edges) and subset > least >= errors.word_steps(*reductions[1:3]):
            lower = "series-parallel"
        cases.append((block, h, widths, reductions, lower))
    routes = Counter(lower for *_, lower in cases)
    assert all(routes[route] > 50 for route in ("subset", "frontier", "series-parallel"))
    default = errors.WORK_BUDGET
    for budget in (default, 3e7, 1e6, 2e5):  # the least admits every block split
        monkeypatch.setattr(errors, "WORK_BUDGET", budget)
        outcomes = []
        for block, h, widths, reductions, lower in cases:
            frontier = graphcomp._frontier_charge(block.vertex_count, len(block.edges),
                                                  *graphcomp._frontier_price(widths))
            both_refuse = (_refused(errors.check_work, *graphcomp._subset_charge(h), 0) and
                           _refused(errors.check_work, *frontier, 0))
            with pytest.raises((_Started, ResourceLimitError)) as outcome:
                graphcomp.reduce_and_count(block)
            refused = outcome.type is ResourceLimitError
            if lower == "series-parallel":
                # the lowest of the three prices: where it is over the budget, so are the others
                assert refused == _refused(errors.check_work, *reductions, 0)
                assert both_refuse or not refused, (budget, sorted(block.edges))
            else:
                assert refused == both_refuse, (budget, sorted(block.edges))
            if not refused:
                assert outcome.value.args == (lower,), (budget, sorted(block.edges))
            outcomes.append(refused)
        if budget < default:
            assert 20 < sum(outcomes) < len(outcomes) - 20
        else:
            assert not any(outcomes)


def test_a_thin_block_over_the_budget_builds_no_frontier_order(monkeypatch):
    def no_order(adj):
        raise AssertionError("the frontier order was built")

    def no_adjacency(n, edges):
        raise AssertionError("the block's adjacency was built")

    monkeypatch.setattr(graphcomp, "_frontier_order", no_order)
    monkeypatch.setattr(graphcomp, "_adjacency", no_adjacency)
    # a 40,000-cycle's block split takes 4.2e7 word steps, its reductions
    # 3.1e8, the lowest of the three prices, and they refuse it themselves
    monkeypatch.setattr(errors, "WORK_BUDGET", 4.5e7)
    with pytest.raises(ResourceLimitError, match="the series-parallel reductions of 40000 vertices needs"):
        graphcomp.reduce_and_count(graphcomp.build_family("cycle", 40000))
    # a 3 x 13,334 grid has a K_4 minor; its block split takes 5.5e7 word
    # steps, its reductions 6.8e8 and the frontier DP at its least 6.0e8, so
    # the frontier DP refuses it on the least widths of a block
    monkeypatch.setattr(errors, "WORK_BUDGET", 1e8)
    with pytest.raises(ResourceLimitError, match="the frontier DP on 40002 vertices and up to 3 states needs"):
        graphcomp.reduce_and_count(grid(3, 13334))


def test_reduce_guard_refuses_by_estimate_or_states_and_counts_thin_blocks_of_any_size():
    with pytest.raises(ResourceLimitError, match=r"the subset DP over 2\^26 vertex sets needs"):
        graphcomp.reduce_and_count(complete_minus_cycle(26))
    # a frontier of width 11 is bounded by 188378402 states and about 6e11
    # steps, so the frontier DP, though far cheaper than 3^330/2 subset
    # steps, is over the budget
    with pytest.raises(ResourceLimitError,
                       match=r"the frontier DP on 330 vertices and up to 1.88e\+08 states needs"):
        graphcomp.reduce_and_count(grid(11, 30))


def test_a_cap_past_the_subset_dp_limit_also_limits_the_frontier_dp():
    # the frontier DP's state bound on a 16x30 grid is about 8.9e13: the
    # grid is refused before either counter starts
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=r"the frontier DP on 480 vertices"):
        graphcomp.reduce_and_count(grid(16, 30))
    assert time.perf_counter() - start < 1


# counts of random_connected_graph(Random(0), n, p), which the state-by-state
# subset DP gave in 6.4 s, 20 s and 57 s (2-vCPU x86-64, CPython 3.11)
OLD_PRICE_REFUSED = {(17, 0.5): 2214265144, (18, 0.5): 28103598583, (19, 0.6): 749757342031}


@pytest.mark.parametrize("n, p", OLD_PRICE_REFUSED)
def test_blocks_the_old_subset_price_refused_are_counted(n, p):
    # priced at 3^h/2 steps they were refused; the ranked table counts
    # them in about 0.5, 1.2 and 3 s under the budget
    graph = graphcomp.random_connected_graph(Random(0), n, p)
    assert graphcomp.reduce_and_count(graph) == OLD_PRICE_REFUSED[n, p]


@pytest.mark.parametrize("n, p", [(20, 0.3), (21, 0.4), (26, 0.9), (24, 0.15), (30, 0.1)])
def test_blocks_that_would_run_past_the_budget_are_refused_at_once(n, p):
    # from a block the unpriced counters take about 2 s on (24 vertices at
    # p = .15) to ones they would take hours on: the counter each block is
    # routed to prices it over the work budget
    graph = graphcomp.random_connected_graph(Random(0), n, p)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="over the budget"):
        graphcomp.reduce_and_count(graph)
    assert time.perf_counter() - start < 1


def test_the_public_frontier_counter_is_guarded():
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="the frontier DP on 330 vertices"):
        graphcomp.count_compositions_frontier(grid(11, 30))
    assert time.perf_counter() - start < 1


# --- the frontier DP --------------------------------------------------------------------------

def grid(rows, columns):
    """Vertex r * columns + c sits in row r, column c."""
    across = {(v, v + 1) for v in range(rows * columns) if v % columns != columns - 1}
    down = {(v, v + columns) for v in range((rows - 1) * columns)}
    return LabeledGraph(rows * columns, across | down)


def crossed_cycle(n):
    """The n-cycle 0-1-...-(n-1)-0 with the crossing chords (0, n/2) and
    (n/4, n/4 + n/2), rounded down: a subdivided K_4 for n >= 8."""
    return LabeledGraph(n, {(i, (i + 1) % n) for i in range(n)} | {(0, n // 2), (n // 4, n // 4 + n // 2)})


def relabelled(graph, rng):
    perm = list(range(graph.vertex_count))
    rng.shuffle(perm)
    return LabeledGraph(graph.vertex_count, {(perm[u], perm[v]) for u, v in graph.edges})


def per_state_frontier(adj, order):
    """The frontier DP unpriced and without its memo, every transition
    rebuilt from the vertex labels at every step: the oracle of the memoised
    DP."""
    rank = [0] * len(adj)
    for i, v in enumerate(order):
        rank[v] = i
    later = [sum(1 for w in neighbours if rank[w] > rank[v]) for v, neighbours in enumerate(adj)]
    frontier = []
    states = {(): 1}
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
        advanced = {}
        for state, ways in states.items():
            blocks = state[:width]
            comps = state[width:]
            opened = max(blocks) + 1 if width else 0
            for b in range(opened + 1):
                merged = {comps[i] for i in hits if blocks[i] == b}
                if merged:
                    vc = min(merged)
                    cs = [vc if c in merged else c for c in comps]
                elif stays or b == opened:
                    vc = width
                    cs = list(comps)
                else:
                    continue
                cs.append(vc)
                bs = blocks + (b,)
                if gone:
                    kept = {cs[i] for i in keep}
                    kept_blocks = {bs[i] for i in keep}
                    closed = {}
                    if any(cs[i] not in kept
                           and (bs[i] in kept_blocks or closed.setdefault(bs[i], cs[i]) != cs[i])
                           for i in gone):
                        continue
                block_ids = {}
                comp_ids = {}
                key = tuple([block_ids.setdefault(bs[i], len(block_ids)) for i in keep]
                            + [comp_ids.setdefault(cs[i], len(comp_ids)) for i in keep])
                advanced[key] = advanced.get(key, 0) + ways
        states = advanced
    return states[()]


def _frontier_both_ways(graph):
    adj = graph.adjacency()
    order = graphcomp._frontier_order(adj)[0]
    return graphcomp._count_frontier(adj, order), per_state_frontier(adj, order)


def test_memoised_frontier_dp_matches_the_per_state_dp():
    rng = Random(2017)
    graphs = [graphcomp.random_graph(rng, rng.randint(0, 12), rng.uniform(0.05, 0.6))
              for _ in range(300)]
    graphs += [relabelled(graphcomp.build_family("cycle", n), rng) for n in range(4, 15)]
    graphs += [relabelled(graphcomp.build_family("ladder", r), rng) for r in range(2, 7)]
    for graph in graphs:
        memoised, oracle = _frontier_both_ways(graph)
        assert memoised == oracle, sorted(graph.edges)


def test_the_successor_memo_stays_bounded_on_a_wide_block():
    graph = graphcomp.random_connected_graph(Random(0), 15, 0.5)
    adj = graph.adjacency()
    order, widths = graphcomp._frontier_order(adj)
    assert max(widths) == 8
    assert graphcomp._count_frontier(adj, order) == per_state_frontier(adj, order)
    info = graphcomp._successors.cache_info()
    assert info.maxsize == graphcomp.FRONTIER_MEMO_ENTRIES
    assert info.misses > info.maxsize  # entries were evicted
    assert info.currsize <= info.maxsize


def test_cycles_and_ladders_share_a_few_memo_entries():
    for n in range(4, 15):
        assert graphcomp.count_compositions_frontier(graphcomp.build_family("cycle", n)) == \
            (1 << n) - n
    for r in range(2, 7):
        assert graphcomp.count_compositions_frontier(graphcomp.build_family("ladder", r)) == \
            graphcomp.ladder_binet(r)
    info = graphcomp._successors.cache_info()
    assert info.currsize < 100 < info.hits


def test_frontier_matches_subset_dp_and_enumeration_on_random_graphs():
    rng = Random(4096)
    for _ in range(300):
        n = rng.randint(0, 10)
        g = graphcomp.random_graph(rng, n, rng.uniform(0.05, 0.9))
        count = graphcomp.count_compositions_frontier(g)
        assert count == graphcomp.count_compositions_graph(g), sorted(g.edges)
        if n <= 8:
            assert count == len(graphcomp.enumerate_graph_compositions(g))


def test_frontier_matches_subset_dp_on_random_graphs_up_to_twelve_vertices():
    rng = Random(12)
    for _ in range(300):
        g = graphcomp.random_graph(rng, rng.randint(0, 12), rng.uniform(0.05, 0.9))
        assert graphcomp.count_compositions_frontier(g) == \
            graphcomp.count_compositions_graph(g), sorted(g.edges)


def test_frontier_known_graphs():
    assert graphcomp.count_compositions_frontier(LabeledGraph(0)) == 1
    assert graphcomp.count_compositions_frontier(LabeledGraph(3)) == 1
    assert graphcomp.count_compositions_frontier(complete(4)) == 15
    assert graphcomp.count_compositions_frontier(graphcomp.build_family("ladder", 4)) == 456


def test_frontier_scales_without_recursion():
    n = 10 ** 4
    assert graphcomp.reduce_and_count(graphcomp.build_family("cycle", n)) == (1 << n) - n
    ladder = graphcomp.build_family("ladder", 2000)
    assert graphcomp.reduce_and_count(ladder) == graphcomp.ladder_binet(2000)
    assert graphcomp.count_compositions_frontier(grid(4, 4)) == \
        graphcomp.count_compositions_graph(grid(4, 4))
    rng = Random(540)
    wide = grid(5, 40)
    assert graphcomp.count_compositions_frontier(relabelled(wide, rng)) == \
        graphcomp.count_compositions_frontier(relabelled(wide, rng))


# --- structural invariants ------------------------------------------------------------------

def test_sandwich_bound_on_random_connected_graphs():
    rng = Random(11)
    for _ in range(60):
        n = rng.randint(1, 9)
        g = graphcomp.random_connected_graph(rng, n, rng.uniform(0.0, 0.5))
        count = graphcomp.count_compositions_graph(g)
        assert (1 << (n - 1)) <= count <= exactnum.bell(n)


def test_adding_edges_never_decreases_count():
    rng = Random(99)
    for _ in range(25):
        n = rng.randint(2, 8)
        g = graphcomp.random_graph(rng, n, 0.3)
        missing = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in g.edges]
        if not missing:
            continue
        extra = rng.choice(missing)
        bigger = LabeledGraph(n, g.edges | {extra})
        assert graphcomp.count_compositions_graph(bigger) >= graphcomp.count_compositions_graph(g)


def test_tree_count_is_shape_independent():
    rng = Random(5)
    for n in range(1, 13):
        for _ in range(3):
            tree = graphcomp.random_tree(rng, n)
            assert len(tree.edges) == max(0, n - 1)
            assert graphcomp.count_compositions_graph(tree) == 1 << (n - 1)


def test_random_graph_determinism():
    a = graphcomp.random_graph(Random(3), 8, 0.3)
    b = graphcomp.random_graph(Random(3), 8, 0.3)
    assert a == b
