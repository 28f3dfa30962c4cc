"""Self-check suites behind the ``verify`` CLI subcommand.

Each check is one ``_agree`` of a route against an independent oracle over a
list of cases (closed form vs dynamic program, recurrence vs series expansion
vs explicit enumeration), compared exactly, or a named property of one route:
counts grow with the upper part bound, connected counts sit between the path
and the complete graph, and adding an edge never lowers a count. Randomized
checks draw from a seeded generator so runs are reproducible.
"""

import math
from collections.abc import Callable, Iterable
from itertools import combinations
from random import Random

from . import VERIFY_SUITES, compositions, exactnum, graphcomp, series
from .compositions import PartBounds
from .errors import check_work, forget, karatsuba, pricing

Check = tuple[str, bool, str]


def run_suite(suite: str, max_n: int = 10, seed: int = 0) -> list[Check]:
    if suite not in VERIFY_SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {VERIFY_SUITES}")
    if max_n < 1:
        raise ValueError("max_n must be positive")
    _check_suite_work(suite, max_n)
    checks: list[Check] = []
    if suite in ("all", "compositions"):
        checks.extend(_composition_checks(max_n))
    if suite in ("all", "series"):
        checks.extend(_series_checks(max_n))
    if suite in ("all", "graphs"):
        checks.extend(_graph_checks(max_n, seed))
    return checks


def _check_suite_work(suite: str, max_n: int) -> None:
    """Refuse a suite whose checks that grow with max_n are over the budget
    (fit to timings at max_n = 50-800; CPython 3.11, 2-vCPU x86-64 guest):
    the leading totals and the bounded-part DP take about 0.9 top^3
    operations on top-bit numbers for top = 4 max_n, the per-first-part
    sums of the leading totals' check about 7 top^2 ln(top) (1 us each at
    max_n = 25-200), the avoid/contain jump check about 4e4 Karatsuba
    products of last bits for last = max(40, top), the series about
    20 order^2 on order-bit numbers, holding the 24 expansions of
    _series_checks (four families, k = 1..6), the distinct total and z, 26
    series of order + 1 terms, for order = max(40, 2 max_n), and the check
    of their printed text, each series at order - 1 and at order, about
    1000 order more (1.5-2.1 times its time at order = 196-1600).
    Left out: the 24 leading values at 4 order, jumped and counted, about
    33 ms of the series' 2.3-3.9 s at max_n = 611, the largest."""
    top, order = 4 * max_n, max(40, 2 * max_n)
    operations = held = 0
    with pricing(what := f"verify --suite {suite} --max-n {max_n}"):
        if suite in ("all", "compositions"):
            operations = (0.9 * top ** 3 + 7 * top ** 2 * math.log(top)
                          + karatsuba(4e4, max(40, top)))
            held = top
        if suite in ("all", "series"):
            operations, held = operations + 20 * order ** 2 + 1000 * order, held + 26 * (order + 1)
        check_work(what, operations, max(top, order), held=held, printed=0)


def _check(name: str, mismatches: list[str]) -> Check:
    return (name, not mismatches, "; ".join(mismatches[:3]))


def _agree(name: str, cases: Iterable[tuple], route: Callable, oracle: Callable, label: Callable) -> Check:
    """Run route(*case) and oracle(*case) on each case in order; the check
    fails on the cases where the two differ, reported by label(*case)."""
    return _check(name, [label(*case) for case in cases if route(*case) != oracle(*case)])


def _per_k_sum(gf: Callable[[int], series.RationalGF], last: int) -> series.TruncatedSeries:
    """The sum of gf(k) over k = 1..last, to order last."""
    return sum((gf(k).expand(last) for k in range(1, last + 1)), series.TruncatedSeries.zero(last))


def _composition_checks(max_n: int) -> list[Check]:
    top, last = min(max_n, 12), 4 * max_n - 1
    positive = {n: [c for parts in range(1, n + 1)
                    for c in compositions.enumerate_compositions(n, parts, compositions.POSITIVE_PARTS)]
                for n in range(1, top + 1)}
    bounds_cases = [PartBounds(0, None), PartBounds(1, None), PartBounds(1, 2), PartBounds(2, 5),
                    PartBounds(0, 3)]

    def distinct_counts(n: int, k: int) -> tuple[int, int]:  # ordered, then unordered
        listed = compositions.enumerate_compositions(n, k, compositions.POSITIVE_PARTS,
                                                     predicate=lambda parts: len(set(parts)) == len(parts))
        return len(listed), len({tuple(sorted(c)) for c in listed})

    distinct = {(n, k): distinct_counts(n, k) for n in range(top + 1) for k in range(n + 1)}
    # a row stops where its entries turn 0, so it is compared padded to k = n
    triangles = [compositions.triangle(kind, top + 1)
                 for kind in (compositions.PARTITIONS_DISTINCT, compositions.COMPOSITIONS_DISTINCT)]

    # over first parts k >= 2, the strict terms fibonacci_higher(k - 1, n - k)
    # are the weak terms of n - 1
    by_first_part = [sum(compositions.fibonacci_higher(k, n - k) for k in range(1, n + 1))
                     for n in range(4 * max_n + 1)]
    strict_sum, weak_sum = (_per_k_sum(gf, last) for gf in (series.gf_leading_strict, series.gf_leading_weak))
    far = max(40, 4 * max_n)  # past enumeration
    windows = {k: compositions._avoiding_window(far, k) for k in range(1, 13)}
    first_parts = [(n, k) for n in range(1, top + 1) for k in range(1, min(n, 6) + 1)]

    checks = [
        _agree("restricted counts match enumeration",
               [(n, k, bounds) for n in range(top + 1) for k in range(min(n, 8) + 2)
                for bounds in bounds_cases],
               compositions.count_restricted,
               lambda n, k, bounds: len(compositions.enumerate_compositions(n, k, bounds)),
               "n={} k={} {}".format),
        _agree("bounded-part counts match the DP",
               [(n, k, lower, upper) for n in range(2 * max_n + 1) for k in range(7)
                for lower, upper in ((0, 3), (1, 4), (2, 7), (2, None))],
               lambda n, k, lower, upper: compositions.count_restricted(n, k, PartBounds(lower, upper)),
               compositions._count_by_dp, "n={} k={} [{}, {}]".format),
        _agree("distinct-part recurrences match enumeration", list(distinct),
               lambda n, k: (compositions.count_compositions_distinct(n, k),
                             compositions.count_partitions_distinct(n, k)),
               lambda n, k: distinct[n, k], "n={} k={}".format),
        _agree("triangle rows match enumeration", [(n,) for n in range(top + 1)],
               lambda n: [rows[n] + (0,) * (n + 1 - len(rows[n])) for rows in triangles],
               lambda n: [tuple(distinct[n, k][1] for k in range(n + 1)),
                          tuple(distinct[n, k][0] for k in range(n + 1))], "n={}".format),
        _agree("ordered distinct counts are k! times unordered",
               [(n, k) for n in range(2 * max_n + 1) for k in range(n + 1)],
               compositions.count_compositions_distinct,
               lambda n, k: exactnum.factorial(k) * compositions.count_partitions_distinct(n, k),
               "n={} k={}".format),
        _agree("leading-summand counters match enumeration", first_parts,
               lambda n, k: (compositions.count_leading_strict(n, k), compositions.count_leading_weak(n, k)),
               lambda n, k: (sum(c[0] == k and all(x < k for x in c[1:]) for c in positive[n]),
                             sum(c[0] == k and all(x <= k for x in c[1:]) for c in positive[n])),
               "n={} k={}".format),
        _agree("leading totals' column sums match the per-first-part sums",
               [(n,) for n in range(1, 4 * max_n + 1)],
               lambda n: (compositions.leading_weak_total(n), compositions.count_leading_strict_total(n)),
               lambda n: (by_first_part[n], int(n == 1) + by_first_part[n - 1]), "n={}".format),
        _agree("leading totals match the sums of the per-k series", [(n,) for n in range(1, last + 1)],
               lambda n: (compositions.count_leading_strict_total(n), compositions.leading_weak_total(n)),
               lambda n: (strict_sum[n], weak_sum[n]), "n={}".format),
        _agree("avoid/contain counters match enumeration", first_parts,
               lambda n, k: (compositions.count_avoiding(n, k), compositions.count_containing(n, k)),
               lambda n, k: (sum(k not in c for c in positive[n]), sum(k in c for c in positive[n])),
               "n={} k={}".format),
        _agree("avoid/contain jump matches the window recurrence",
               [(k, far) for k in range(1, 13)],
               lambda k, n: series._jump(series.gf_avoiding(k), n, k + 1), lambda k, n: list(windows[k]),
               "k={} n={}".format),
        _neighbour_check(max_n),
        _agree("bounded-part totals match enumeration",
               [(m, n) for m in range(1, 5) for n in range(min(max_n, 10) + 1)],
               compositions.fibonacci_higher,
               lambda m, n: sum(len(compositions.enumerate_compositions(n, parts, PartBounds(1, m)))
                                for parts in range(n + 1)),
               "m={} n={}".format),
    ]
    bad = []
    for n in range(top + 1):
        for k in range(min(n, 6) + 1):
            counts = [compositions.count_restricted(n, k, PartBounds(0, upper)) for upper in range(n + 2)]
            bad += [f"n={n} k={k} upper={upper}" for upper in range(1, n + 2)
                    if counts[upper] < counts[upper - 1]]
    checks.append(_check("counts grow with the upper part bound", bad))
    return checks


def _neighbour_check(max_n: int) -> Check:
    """The counters that continue from their last call's values, called in a
    walk that moves those values forward, backward and far, across a change
    of the leading totals' crossover m0 and of the avoided part, with strict
    and weak totals interleaved; each value against the same call made with
    nothing kept."""
    top = 4 * max_n
    change = max(n for n in range(3, top + 2)
                 if compositions._leading_crossover(n) != compositions._leading_crossover(n - 1))
    weak, strict = compositions.leading_weak_total, compositions.count_leading_strict_total
    walk = [(weak, n) for n in range(change - 2, change + 2)]
    walk += [(strict, n) for n in range(change + 2, change - 3, -1)]  # strict n reads the columns of n - 1
    walk += [(weak, 1), (weak, top), (strict, top + 1), (weak, top - 1), (strict, top - 1)]
    avoid, contain = compositions.count_avoiding, compositions.count_containing
    for k in (1, 2, 3, 5, 8):
        start = 1
        while not compositions._by_jump(k, start):  # to the first n that takes the jump, and keeps its window
            start += 1
        cost = int(compositions._jump_cost(k, start))
        walk += [(avoid, n, k) for n in (start - 1, start, start + 1)]
        # moved up and down, then farther than a fresh jump costs, then down one
        walk += [(contain, n, k) for n in (start + cost, start + cost // 2, start + 3 * cost, start + 3 * cost - 1)]

    def fresh(i: int) -> int:
        forget()
        count, *args = walk[i]
        return count(*args)

    moved = [fresh(0), *(count(*args) for count, *args in walk[1:])]
    return _agree("neighbouring counts match fresh counts", [(i,) for i in range(len(walk))],
                  moved.__getitem__, fresh,
                  lambda i: f"{walk[i][0].__name__}({', '.join(map(str, walk[i][1:]))})")


def _series_checks(max_n: int) -> list[Check]:
    order = max(40, 2 * max_n)
    strict, weak, avoid, contain = ({k: gf(k).expand(order) for k in range(1, 7)} for gf in (
        series.gf_leading_strict, series.gf_leading_weak, series.gf_avoiding, series.gf_containing))
    total = series.gf_distinct_total(order)
    z = series.TruncatedSeries((0, 1) + (0,) * (order - 1))
    by_k = [(k, n) for k in range(1, 7) for n in range(order + 1)]
    leading = (series.gf_leading_strict, series.gf_leading_weak)
    return [
        # past the expansions the jump reads them, at 4 order, where weak k >= 7 take the binomial route
        _agree("leading-summand series match the recurrences", by_k + [(k, 4 * order) for k in range(1, 13)],
               lambda k, n: (strict[k][n], weak[k][n]) if n <= order
               else tuple(series._jump(gf(k), n)[0] for gf in leading),
               lambda k, n: (compositions.count_leading_strict(n, k), compositions.count_leading_weak(n, k)),
               "k={} n={}".format),
        _agree("avoid/contain series match the counters", by_k,
               lambda k, n: (avoid[k][n], contain[k][n]),
               lambda k, n: (compositions.count_avoiding(n, k), compositions.count_containing(n, k)),
               "k={} n={}".format),
        _agree("distinct-part total series matches the counter", [(n,) for n in range(order + 1)],
               total.coefficient, compositions.count_compositions_distinct_total, "n={}".format),
        _agree("weak total series shifted by z equals strict total minus z", [()],
               lambda: _per_k_sum(series.gf_leading_weak, order).shifted(1),
               lambda: _per_k_sum(series.gf_leading_strict, order) - z, lambda: "series identity failed"),
        _agree("both denominator forms of the strict gf agree", [(k,) for k in range(2, 7)],
               lambda k: series.RationalGF((0,) * k + (1,), (1,) + (-1,) * (k - 1)).expand(order),
               strict.get, "k={}".format),
        # each series at order - 1, then continued to order (k = order + 2 is clamped to a new series)
        _agree("printed series match the int expansion",
               [(family, k, n) for family in series.SERIES_FAMILIES for k in (*range(1, 7), order + 2)
                for n in (order - 1, order)],
               lambda family, k, n: list(map(str, series.family_decimals(family, k, n))),
               lambda family, k, n: list(map(str, series.family_series(family, k, n).coefficients)),
               "{} k={} order={}".format),
    ]


def _graph_label(graph: graphcomp.LabeledGraph) -> str:
    return f"n={graph.vertex_count} edges={sorted(graph.edges)}"


def _relabelled(graph: graphcomp.LabeledGraph, rng: Random) -> graphcomp.LabeledGraph:
    perm = rng.sample(range(graph.vertex_count), graph.vertex_count)
    return graphcomp.LabeledGraph(graph.vertex_count, {(perm[u], perm[v]) for u, v in graph.edges})


def _whole_table(graph: graphcomp.LabeledGraph) -> int:
    """The count from the subset DP over every vertex, universal or not."""
    return graphcomp._subset_ways(graph.neighbor_masks(), graph.vertex_count)[-1]


def _partial_two_tree(rng: Random, n: int, keep: float = 0.75) -> graphcomp.LabeledGraph:
    """A random 2-tree on n vertices, each vertex from the third on joined to
    both ends of a random earlier edge, with each edge kept with probability
    keep: a graph with no K_4 minor."""
    edges = [(0, 1)] if n > 1 else []
    for v in range(2, n):
        a, b = rng.choice(edges)
        edges += [(a, v), (b, v)]
    return graphcomp.LabeledGraph(n, {edge for edge in edges if rng.random() < keep})


def _no_k4_minor(n: int, edges: Iterable[tuple[int, int]]) -> bool:
    """Whether taking out vertices of degree at most 2 one at a time, joining
    the two neighbours of each, empties the graph: in any order it does
    exactly on the graphs with no K_4 minor (treewidth at most 2)."""
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    left = set(range(n))
    while left:
        v = next((v for v in left if len(adj[v]) <= 2), None)
        if v is None:
            return False
        left.remove(v)
        for w in adj[v]:
            adj[w].discard(v)
        if len(adj[v]) == 2:
            a, b = adj[v]
            adj[a].add(b)
            adj[b].add(a)
    return True


def _graph_checks(max_n: int, seed: int) -> list[Check]:
    # the random pools are drawn in the order of the checks that read them
    rng, top = Random(seed), min(max_n, 12)
    # the subset DP's whole table against enumeration, which lists the
    # Bell(9) = 21,147 partitions of the largest
    small = [graph for n in range(min(max_n, 9) + 1)
             for graph in (graphcomp.build_family("path", n), graphcomp.build_family("complete", n),
                           graphcomp.random_graph(rng, n, 0.4), graphcomp.random_graph(rng, n, 0.7))]
    connected = [graphcomp.random_connected_graph(rng, rng.randint(1, min(max_n, 10)), rng.uniform(0.0, 0.4))
                 for _ in range(25)]
    decomposed = [graphcomp.random_graph(rng, rng.randint(2, max(2, top)), rng.uniform(0.1, 0.4))
                  for _ in range(15)]
    trees = [graphcomp.random_tree(rng, rng.randint(1, top)) for _ in range(8)]
    added = []  # a graph and an edge that it lacks
    for _ in range(10):
        n = rng.randint(2, max(2, min(max_n, 9)))
        graph = graphcomp.random_graph(rng, n, 0.3)
        missing = [pair for pair in combinations(range(n), 2) if pair not in graph.edges]
        if missing:
            added.append((graph, rng.choice(missing)))
    thin = [graphcomp.random_graph(rng, rng.randint(0, top), rng.uniform(0.05, 0.7)) for _ in range(20)]
    thin += [graphcomp.build_family("cycle", n) for n in range(3, top + 1)]
    thin += [graphcomp.build_family("ladder", rungs) for rungs in range(1, top // 2 + 1)]
    grid = {(v, v + 1) for v in range(12) if v % 4 != 3} | {(v, v + 4) for v in range(8)}
    thin.append(graphcomp.LabeledGraph(12, grid))
    dense = []
    for _ in range(20):
        n = rng.randint(3, max(3, top))
        hubs = rng.sample(range(n), rng.randint(1, n // 3))
        joins = {(min(h, v), max(h, v)) for h in hubs for v in range(n) if v != h}
        edges = graphcomp.random_graph(rng, n, rng.uniform(0.5, 0.97)).edges | joins
        dense.append(graphcomp.LabeledGraph(n, edges))
    for _ in range(10):  # K_n minus a random matching of the vertices that are not hubs
        n = rng.randint(3, max(3, top))
        others = rng.sample(range(n), n - rng.randint(1, n // 3))
        matching = {(min(pair), max(pair)) for pair in zip(others[::2], others[1::2])}
        dense.append(graphcomp.LabeledGraph(n, set(combinations(range(n), 2)) - matching))
    # the closed forms of K_n and K_n - e read the Bell numbers that the route reads
    dense += [graphcomp.build_family(family, n)
              for n in range(3, top + 1) for family in ("complete", "complete_minus_edge")]
    cut = []
    for _ in range(20):
        n = rng.choice([0, *range(2, top + 1)])  # one vertex alone is universal
        edges = set(graphcomp.random_graph(rng, n, rng.uniform(0.2, 0.9)).edges)
        for v in range(n):  # cut an edge at each universal vertex
            if sum(v in edge for edge in edges) == n - 1:
                w = rng.choice([w for w in range(n) if w != v])
                edges.discard((min(v, w), max(v, w)))
        cut.append(graphcomp.LabeledGraph(n, edges))
    copies = [(graph, _relabelled(graph, rng)) for graph in dense + thin]
    reducible = [block for graph in [_partial_two_tree(rng, rng.randint(1, top)) for _ in range(40)] + thin
                 for block in graphcomp._blocks(graph)]

    count, frontier = graphcomp.count_compositions_graph, graphcomp.count_compositions_frontier
    families = (("path", range(0, min(max_n, 16) + 1)), ("tree", range(0, min(max_n, 14) + 1)),
                ("complete", range(0, top + 1)), ("complete_minus_edge", range(2, top + 1)),
                ("cycle", range(3, min(max_n, 16) + 1)), ("ladder", range(1, min(max_n, 7) + 1)))
    # 2z / (1 - 6z - z^2): the rung recurrence L(n) = 6 L(n - 1) + L(n - 2) from L(0) = 0, L(1) = 2
    ladder = series.RationalGF((0, 2), (1, -6, -1))

    def stirling_sum(m: int) -> int:  # Bell(m) by a sum that reads no Bell number
        return sum(exactnum.stirling2(m, k) for k in range(m + 1))

    def closed_form(family: str, n: int) -> int:  # K_n and K_n - e by Stirling sums, not family_count
        if family == "complete":
            return stirling_sum(n)
        if family == "complete_minus_edge":
            return stirling_sum(n) - stirling_sum(n - 2)
        return graphcomp.family_count(family, n)

    checks = [
        _agree("family closed forms match the subset DP",
               [(family, n) for family, sizes in families for n in sizes],
               lambda family, n: (count(graphcomp.build_family(family, n)), graphcomp.family_count(family, n)),
               lambda family, n: (closed_form(family, n),) * 2, "{} n={}".format),
        _agree("subset DP matches partition enumeration", [(graph,) for graph in small],
               count, lambda graph: len(graphcomp.enumerate_graph_compositions(graph)), _graph_label),
    ]
    bad = []
    for graph in connected:
        n, total = graph.vertex_count, count(graph)
        if not 1 << (n - 1) <= total <= exactnum.bell(n):
            bad.append(f"n={n} count={total}")
    checks.append(_check("connected counts sit between path and complete", bad))
    checks += [
        _agree("decomposition product matches the subset DP", [(graph,) for graph in decomposed],
               graphcomp.reduce_and_count, count, _graph_label),
        _agree("ladder closed form matches the recurrence", [(n,) for n in range(1, 51)],
               graphcomp.ladder_binet, lambda n: series._jump(ladder, n)[0], "n={}".format),
        # each tree by the subset DP and by reduce_and_count, which counts a forest with no DFS
        _agree("tree counts do not depend on tree shape", [(tree,) for tree in trees],
               lambda tree: (count(tree), graphcomp.reduce_and_count(tree)),
               lambda tree: (1 << (tree.vertex_count - 1),) * 2, _graph_label),
    ]
    bad = [f"n={graph.vertex_count} edge={extra}" for graph, extra in added
           if count(graphcomp.LabeledGraph(graph.vertex_count, graph.edges | {extra})) < count(graph)]
    checks.append(_check("adding an edge never lowers the count", bad))
    checks += [
        _agree("frontier DP matches subset DP", [(graph,) for graph in thin],
               frontier, count, _graph_label),
        _agree("ladder recurrence matches the frontier DP",
               [(rungs,) for rungs in range(1, 2 * min(max_n, 16) + 1)],
               lambda rungs: (frontier(graphcomp.build_family("ladder", rungs)),
                              graphcomp.family_count("ladder", rungs)),
               lambda rungs: (series._jump(ladder, rungs)[0],) * 2, "rungs={}".format),
        _agree("universal-vertex route matches the subset DP", [(graph,) for graph in dense],
               count, _whole_table, _graph_label),
        _agree("the subset DP's last-vertex sum matches its whole table", [(graph,) for graph in cut],
               count, _whole_table, _graph_label),
        # each graph warms the memo with its blocks, which its copy then looks up
        _agree("relabelled blocks take the memo's count", copies,
               lambda graph, copy: (graphcomp.reduce_and_count(graph), graphcomp.reduce_and_count(copy)),
               lambda graph, _: (_whole_table(graph),) * 2, lambda graph, _: _graph_label(graph)),
        _agree("series-parallel route matches the subset DP", reducible, graphcomp._series_parallel,
               lambda n, edges: _whole_table(graphcomp.LabeledGraph(n, edges)) if _no_k4_minor(n, edges)
               else None, "n={} edges={}".format),
        _agree("edge lists round-trip",
               [(graph,) for graph in small + connected + decomposed + trees + thin + dense + cut],
               lambda graph: graphcomp.parse_edge_list(graphcomp.format_edge_list(graph)),
               lambda graph: graph, _graph_label),
    ]
    return checks
