"""Self-check suites behind the ``verify`` CLI subcommand.

Every check recomputes a family of values by at least two independent routes
(closed form vs dynamic program, recurrence vs series expansion vs explicit
enumeration) and compares them exactly. Randomized checks draw from a seeded
generator so runs are reproducible.
"""

import math
from itertools import combinations
from random import Random

from . import VERIFY_SUITES, compositions, exactnum, graphcomp, series
from .compositions import PartBounds
from .errors import check_work, pricing

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
    max_n = 25-200), the avoid/contain jump check about
    4e4 (last/64 + 1)^0.585 on last-bit numbers for last = max(40, top), the
    series about 20 order^2 on order-bit numbers, in about 4 series of
    order + 1 terms, for order = max(40, 2 max_n), and the check of their
    printed text about 500 order more (1.0-1.3 times its time at
    order = 196-1600)."""
    top, order = 4 * max_n, max(40, 2 * max_n)
    operations = held = 0
    with pricing(what := f"verify --suite {suite} --max-n {max_n}"):
        if suite in ("all", "compositions"):
            operations = (0.9 * top ** 3 + 7 * top ** 2 * math.log(top)
                          + 4e4 * (max(40, top) / 64 + 1) ** 0.585)
            held = top
        if suite in ("all", "series"):
            operations, held = operations + 20 * order ** 2 + 500 * order, held + 4 * order
        check_work(what, operations, max(top, order), held=held, printed=0)


def _check(name: str, mismatches: list[str]) -> Check:
    return (name, not mismatches, "; ".join(mismatches[:3]))


def _all_compositions(n: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for parts in range(1, n + 1):
        out.extend(compositions.enumerate_compositions(n, parts, compositions.POSITIVE_PARTS))
    return out


def _composition_checks(max_n: int) -> list[Check]:
    checks = []
    top = min(max_n, 12)

    bad: list[str] = []
    bounds_cases = [
        PartBounds(0, None),
        PartBounds(1, None),
        PartBounds(1, 2),
        PartBounds(2, 5),
        PartBounds(0, 3),
    ]
    for n in range(top + 1):
        for k in range(min(n, 8) + 2):
            for bounds in bounds_cases:
                want = len(compositions.enumerate_compositions(n, k, bounds))
                got = compositions.count_restricted(n, k, bounds)
                if want != got:
                    bad.append(f"n={n} k={k} {bounds}: {got} != {want}")
    checks.append(_check("restricted counts match enumeration", bad))

    bad = []
    for n in range(2 * max_n + 1):
        for k in range(7):
            for lower, upper in ((0, 3), (1, 4), (2, 7), (2, None)):
                got = compositions.count_restricted(n, k, PartBounds(lower, upper))
                want = compositions._count_by_dp(n, k, lower, upper)
                if got != want:
                    bad.append(f"n={n} k={k} [{lower}, {upper}]: {got} != {want}")
    checks.append(_check("bounded-part counts match the DP", bad))

    bad = []
    distinct = lambda parts: len(set(parts)) == len(parts)
    for n in range(top + 1):
        for k in range(n + 1):
            listed = compositions.enumerate_compositions(
                n, k, compositions.POSITIVE_PARTS, predicate=distinct
            )
            if compositions.count_compositions_distinct(n, k) != len(listed):
                bad.append(f"ordered n={n} k={k}")
            unordered = {tuple(sorted(c)) for c in listed}
            if compositions.count_partitions_distinct(n, k) != len(unordered):
                bad.append(f"unordered n={n} k={k}")
    checks.append(_check("distinct-part recurrences match enumeration", bad))

    bad = []
    for n in range(2 * max_n + 1):
        for k in range(n + 1):
            lhs = compositions.count_compositions_distinct(n, k)
            rhs = exactnum.factorial(k) * compositions.count_partitions_distinct(n, k)
            if lhs != rhs:
                bad.append(f"n={n} k={k}")
    checks.append(_check("ordered distinct counts are k! times unordered", bad))

    bad = []
    for n in range(1, top + 1):
        everything = _all_compositions(n)
        for k in range(1, min(n, 6) + 1):
            strict = sum(1 for c in everything if c[0] == k and all(x < k for x in c[1:]))
            weak = sum(1 for c in everything if c[0] == k and all(x <= k for x in c[1:]))
            if compositions.count_leading_strict(n, k) != strict:
                bad.append(f"strict n={n} k={k}")
            if compositions.count_leading_weak(n, k) != weak:
                bad.append(f"weak n={n} k={k}")
    checks.append(_check("leading-summand counters match enumeration", bad))

    bad = []
    for n in range(1, 4 * max_n):
        if compositions.count_leading_strict_total(n + 1) != compositions.leading_weak_total(n):
            bad.append(f"n={n}")
    checks.append(_check("strict total at n+1 equals weak total at n", bad))

    bad = []
    # over first parts k >= 2, the strict terms fibonacci_higher(k - 1, n - k)
    # are the weak terms of n - 1
    by_first_part = [sum(compositions.fibonacci_higher(k, n - k) for k in range(1, n + 1))
                     for n in range(4 * max_n + 1)]
    for n in range(1, 4 * max_n + 1):
        if compositions.leading_weak_total(n) != by_first_part[n]:
            bad.append(f"weak n={n}")
        if compositions.count_leading_strict_total(n) != int(n == 1) + by_first_part[n - 1]:
            bad.append(f"strict n={n}")
    checks.append(_check("leading totals' column sums match the per-first-part sums", bad))

    bad = []
    last = 4 * max_n - 1
    for mode, total, gf in (("strict", compositions.count_leading_strict_total, series.gf_leading_strict),
                            ("weak", compositions.leading_weak_total, series.gf_leading_weak)):
        sums = series.TruncatedSeries.zero(last)
        for k in range(1, last + 1):
            sums = sums + gf(k).expand(last)
        bad += [f"{mode} n={n}" for n in range(1, last + 1) if total(n) != sums[n]]
    checks.append(_check("leading totals match the sums of the per-k series", bad))

    bad = []
    for n in range(1, top + 1):
        everything = _all_compositions(n)
        for k in range(1, min(n, 6) + 1):
            avoiding = sum(1 for c in everything if k not in c)
            if compositions.count_avoiding(n, k) != avoiding:
                bad.append(f"avoid n={n} k={k}")
            if compositions.count_containing(n, k) != len(everything) - avoiding:
                bad.append(f"contain n={n} k={k}")
            if compositions.count_avoiding(n, k) + compositions.count_containing(n, k) != 1 << (n - 1):
                bad.append(f"complement n={n} k={k}")
    checks.append(_check("avoid/contain counters match enumeration and sum to 2^(n-1)", bad))

    bad = []
    last = max(40, 4 * max_n)  # past enumeration
    for k in range(1, 13):
        seeds = compositions._avoiding_window(k + 1, k)
        for n, want in zip(range(last - k, last + 1), compositions._avoiding_window(last, k)):
            if compositions._avoiding_jump(seeds, n) != want:
                bad.append(f"k={k} n={n}")
    checks.append(_check("avoid/contain jump matches the window recurrence", bad))

    bad = []
    for m in range(1, 5):
        for n in range(min(max_n, 10) + 1):
            want = sum(len(compositions.enumerate_compositions(n, parts, PartBounds(1, m)))
                       for parts in range(n + 1))
            if compositions.fibonacci_higher(m, n) != want:
                bad.append(f"m={m} n={n}")
    checks.append(_check("bounded-part totals match enumeration", bad))

    bad = []
    for n in range(top + 1):
        for k in range(min(n, 6) + 1):
            previous = None
            for upper in range(n + 2):
                value = compositions.count_restricted(n, k, PartBounds(0, upper))
                if previous is not None and value < previous:
                    bad.append(f"n={n} k={k} upper={upper}")
                previous = value
    checks.append(_check("counts grow with the upper part bound", bad))

    return checks


def _series_checks(max_n: int) -> list[Check]:
    checks = []
    order = max(40, 2 * max_n)

    bad: list[str] = []
    for k in range(1, 7):
        strict = series.gf_leading_strict(k).expand(order)
        weak = series.gf_leading_weak(k).expand(order)
        for n in range(order + 1):
            if strict[n] != compositions.count_leading_strict(n, k):
                bad.append(f"strict k={k} n={n}")
            if weak[n] != compositions.count_leading_weak(n, k):
                bad.append(f"weak k={k} n={n}")
    checks.append(_check("leading-summand series match the recurrences", bad))

    bad = []
    for k in range(1, 7):
        avoid = series.gf_avoiding(k).expand(order)
        contain = series.gf_containing(k).expand(order)
        for n in range(order + 1):
            if avoid[n] != compositions.count_avoiding(n, k):
                bad.append(f"avoid k={k} n={n}")
            if contain[n] != compositions.count_containing(n, k):
                bad.append(f"contain k={k} n={n}")
    checks.append(_check("avoid/contain series match the counters", bad))

    bad = []
    total = series.gf_distinct_total(order)
    for n in range(order + 1):
        if total[n] != compositions.count_compositions_distinct_total(n):
            bad.append(f"n={n}")
    checks.append(_check("distinct-part total series matches the counter", bad))

    bad = []
    strict_sum = series.TruncatedSeries.zero(order)
    weak_sum = series.TruncatedSeries.zero(order)
    for k in range(1, order + 1):
        strict_sum = strict_sum + series.gf_leading_strict(k).expand(order)
        weak_sum = weak_sum + series.gf_leading_weak(k).expand(order)
    z = series.TruncatedSeries((0, 1) + (0,) * (order - 1))
    if weak_sum.shifted(1) != strict_sum - z:
        bad.append("series identity failed")
    checks.append(_check("weak total series shifted by z equals strict total minus z", bad))

    bad = []
    for k in range(2, 7):
        direct = series.RationalGF((0,) * k + (1,), (1,) + (-1,) * (k - 1)).expand(order)
        if direct != series.gf_leading_strict(k).expand(order):
            bad.append(f"k={k}")
    checks.append(_check("both denominator forms of the strict gf agree", bad))

    bad = []
    for family in series.SERIES_FAMILIES:
        for k in (*range(1, 7), order + 2):
            printed = list(map(str, series.family_decimals(family, k, order)))
            if printed != list(map(str, series.family_series(family, k, order).coefficients)):
                bad.append(f"{family} k={k}")
    checks.append(_check("printed series match the int expansion", bad))

    return checks


def _ladder_recurrence(rungs: int) -> list[int]:
    """Ladder counts for 1..rungs rungs by the rung recurrence: 2, 12, then
    6 * previous + one before that."""
    counts = [2, 12]
    while len(counts) < rungs:
        counts.append(6 * counts[-1] + counts[-2])
    return counts[:rungs]


def _graph_checks(max_n: int, seed: int) -> list[Check]:
    checks = []
    rng = Random(seed)

    bad: list[str] = []
    cases = [("path", range(0, min(max_n, 16) + 1)),
             ("tree", range(0, min(max_n, 14) + 1)),
             ("complete", range(0, min(max_n, 12) + 1)),
             ("complete_minus_edge", range(2, min(max_n, 12) + 1)),
             ("cycle", range(3, min(max_n, 16) + 1)),
             ("ladder", range(1, min(max_n, 7) + 1))]
    for family, sizes in cases:
        for n in sizes:
            built = graphcomp.build_family(family, n)
            if graphcomp.count_compositions_graph(built) != graphcomp.family_count(family, n):
                bad.append(f"{family} n={n}")
    checks.append(_check("family closed forms match the subset DP", bad))

    bad = []
    # past 8 vertices the subset DP convolves its largest cubes
    for n in range(min(max_n, 9) + 1):
        for graph in (graphcomp.build_family("path", n), graphcomp.build_family("complete", n),
                      graphcomp.random_graph(rng, n, 0.4), graphcomp.random_graph(rng, n, 0.7)):
            if graphcomp.count_compositions_graph(graph) != len(
                graphcomp.enumerate_graph_compositions(graph)
            ):
                bad.append(f"n={n} edges={sorted(graph.edges)}")
    checks.append(_check("subset DP matches partition enumeration", bad))

    bad = []
    for _ in range(25):
        n = rng.randint(1, min(max_n, 10))
        graph = graphcomp.random_connected_graph(rng, n, rng.uniform(0.0, 0.4))
        count = graphcomp.count_compositions_graph(graph)
        if not (1 << (n - 1) if n else 1) <= count <= exactnum.bell(n):
            bad.append(f"n={n} count={count}")
    checks.append(_check("connected counts sit between path and complete", bad))

    bad = []
    for _ in range(15):
        n = rng.randint(2, max(2, min(max_n, 12)))
        graph = graphcomp.random_graph(rng, n, rng.uniform(0.1, 0.4))
        if graphcomp.reduce_and_count(graph) != graphcomp.count_compositions_graph(graph):
            bad.append(f"n={n} edges={sorted(graph.edges)}")
    checks.append(_check("decomposition product matches the subset DP", bad))

    bad = [f"n={n}" for n, count in enumerate(_ladder_recurrence(50), start=1)
           if graphcomp.ladder_binet(n) != count]
    checks.append(_check("ladder closed form matches the recurrence", bad))

    bad = []
    for _ in range(8):
        n = rng.randint(1, min(max_n, 12))
        tree = graphcomp.random_tree(rng, n)
        if graphcomp.count_compositions_graph(tree) != (1 << (n - 1)):
            bad.append(f"n={n} edges={sorted(tree.edges)}")
    checks.append(_check("tree counts do not depend on tree shape", bad))

    bad = []
    for _ in range(10):
        n = rng.randint(2, max(2, min(max_n, 9)))
        graph = graphcomp.random_graph(rng, n, 0.3)
        missing = [pair for pair in combinations(range(n), 2) if pair not in graph.edges]
        if not missing:
            continue
        extra = rng.choice(missing)
        bigger = graphcomp.LabeledGraph(n, graph.edges | {extra})
        if graphcomp.count_compositions_graph(bigger) < graphcomp.count_compositions_graph(graph):
            bad.append(f"n={n} edge={extra}")
    checks.append(_check("adding an edge never lowers the count", bad))

    bad = []
    top = min(max_n, 12)
    graphs = [graphcomp.random_graph(rng, rng.randint(0, top), rng.uniform(0.05, 0.7)) for _ in range(20)]
    graphs += [graphcomp.build_family("cycle", n) for n in range(3, top + 1)]
    graphs += [graphcomp.build_family("ladder", rungs) for rungs in range(1, top // 2 + 1)]
    grid = {(v, v + 1) for v in range(12) if v % 4 != 3} | {(v, v + 4) for v in range(8)}
    graphs.append(graphcomp.LabeledGraph(12, grid))
    for graph in graphs:
        if graphcomp.count_compositions_frontier(graph) != graphcomp.count_compositions_graph(graph):
            bad.append(f"n={graph.vertex_count} edges={sorted(graph.edges)}")
    checks.append(_check("frontier DP matches subset DP", bad))

    bad = []
    for rungs, expected in enumerate(_ladder_recurrence(2 * min(max_n, 16)), start=1):
        count = graphcomp.count_compositions_frontier(graphcomp.build_family("ladder", rungs))
        if not count == expected == graphcomp.family_count("ladder", rungs):
            bad.append(f"rungs={rungs}")
    checks.append(_check("ladder recurrence matches the frontier DP", bad))

    bad = []
    graphs = []
    for _ in range(20):
        n = rng.randint(3, max(3, min(max_n, 12)))
        hubs = rng.sample(range(n), rng.randint(1, n // 3))
        joins = {(min(h, v), max(h, v)) for h in hubs for v in range(n) if v != h}
        edges = graphcomp.random_graph(rng, n, rng.uniform(0.5, 0.97)).edges | joins
        graphs.append(graphcomp.LabeledGraph(n, edges))
    for _ in range(10):  # K_n minus a random matching of the vertices that are not hubs
        n = rng.randint(3, max(3, min(max_n, 12)))
        others = rng.sample(range(n), n - rng.randint(1, n // 3))
        matching = {(min(pair), max(pair)) for pair in zip(others[::2], others[1::2])}
        graphs.append(graphcomp.LabeledGraph(n, set(combinations(range(n), 2)) - matching))
    for graph in graphs:
        n = graph.vertex_count
        if graphcomp.count_compositions_graph(graph) != graphcomp._subset_ways(graph.neighbor_masks(), n)[-1]:
            bad.append(f"n={n} edges={sorted(graph.edges)}")
    checks.append(_check("universal-vertex route matches the subset DP", bad))

    bad = []
    sizes = [0, *range(2, min(max_n, 12) + 1)]  # one vertex alone is universal
    for _ in range(20):
        n = rng.choice(sizes)
        edges = set(graphcomp.random_graph(rng, n, rng.uniform(0.2, 0.9)).edges)
        for v in range(n):  # cut an edge at each universal vertex
            if sum(v in edge for edge in edges) == n - 1:
                w = rng.choice([w for w in range(n) if w != v])
                edges.discard((min(v, w), max(v, w)))
        graph = graphcomp.LabeledGraph(n, edges)
        if graphcomp.count_compositions_graph(graph) != graphcomp._subset_ways(graph.neighbor_masks(), n)[-1]:
            bad.append(f"n={n} edges={sorted(graph.edges)}")
    checks.append(_check("the subset DP's last-vertex sum matches its whole table", bad))

    return checks
