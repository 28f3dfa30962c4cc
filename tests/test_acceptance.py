"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every comparison is exact; there are no tolerances anywhere.
"""

from random import Random

from compcount import compositions, exactnum, graphcomp, series
from compcount.compositions import PartBounds, POSITIVE_PARTS


def _report(number: int, title: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {number:2d}] {status} {title}")
    assert not failures, f"criterion {number}: " + "; ".join(failures[:5])


def _distinct(parts):
    return len(set(parts)) == len(parts)


def _all_positive_compositions(n):
    out = []
    for k in range(1, n + 1):
        out.extend(compositions.enumerate_compositions(n, k, POSITIVE_PARTS))
    return out


def test_criterion_01_distinct_recurrences_match_enumeration():
    failures = []
    for n in range(21):
        for k in range(n + 1):
            listed = compositions.enumerate_compositions(
                n, k, POSITIVE_PARTS, predicate=_distinct
            )
            ordered = compositions.count_compositions_distinct(n, k)
            if ordered != len(listed):
                failures.append(f"C[{n},{k}]={ordered} enumeration={len(listed)}")
            unordered = compositions.count_partitions_distinct(n, k)
            sets = {tuple(sorted(c)) for c in listed}
            if unordered != len(sets):
                failures.append(f"Pi[{n},{k}]={unordered} enumeration={len(sets)}")
    _report(1, "distinct-part recurrences match brute force up to n = 20", failures)


def test_criterion_02_ordered_equals_factorial_times_unordered():
    failures = []
    for n in range(31):
        for k in range(n + 1):
            lhs = compositions.count_compositions_distinct(n, k)
            rhs = exactnum.factorial(k) * compositions.count_partitions_distinct(n, k)
            if lhs != rhs:
                failures.append(f"n={n} k={k}: {lhs} != {rhs}")
    _report(2, "ordered distinct counts are k! times unordered up to n = 30", failures)


def test_criterion_03_closed_forms_match_general_dp():
    failures = []
    for n in range(26):
        for k in range(26):
            free = compositions.count_restricted(n, k)
            if free != compositions._count_by_dp(n, k, 0, None):
                failures.append(f"nonneg n={n} k={k}")
            if free != exactnum.binomial(n + k - 1, k - 1) and k > 0:
                failures.append(f"nonneg closed form n={n} k={k}")
            positive = compositions.count_restricted(n, k, POSITIVE_PARTS)
            if positive != compositions._count_by_dp(n, k, 1, None):
                failures.append(f"positive n={n} k={k}")
            if positive != exactnum.binomial(n - 1, k - 1) and k > 0:
                failures.append(f"positive closed form n={n} k={k}")
    _report(3, "stars-and-bars closed forms match the general DP up to 25", failures)


def test_criterion_04_graph_family_counts():
    failures = []
    for n in range(17):
        built = graphcomp.build_family("path", n)
        if graphcomp.count_compositions_graph(built) != (1 if n == 0 else 1 << (n - 1)):
            failures.append(f"path n={n}")
    rng = Random(414)
    for _ in range(12):
        n = rng.randint(1, 14)
        tree = graphcomp.random_tree(rng, n)
        if graphcomp.count_compositions_graph(tree) != 1 << (n - 1):
            failures.append(f"tree n={n} edges={sorted(tree.edges)}")
    if exactnum.bell(12) != 4213597:
        failures.append("bell(12) != 4213597")
    for n in range(13):
        built = graphcomp.build_family("complete", n)
        if graphcomp.count_compositions_graph(built) != exactnum.bell(n):
            failures.append(f"complete n={n}")
    for n in range(2, 13):
        built = graphcomp.build_family("complete_minus_edge", n)
        expected = exactnum.bell(n) - exactnum.bell(n - 2)
        if graphcomp.count_compositions_graph(built) != expected:
            failures.append(f"complete_minus_edge n={n}")
    for n in range(3, 17):
        built = graphcomp.build_family("cycle", n)
        if graphcomp.count_compositions_graph(built) != (1 << n) - n:
            failures.append(f"cycle n={n}")
    expected_ladders = [2, 12, 74, 456]
    while len(expected_ladders) < 7:
        expected_ladders.append(6 * expected_ladders[-1] + expected_ladders[-2])
    for n in range(1, 8):
        built = graphcomp.build_family("ladder", n)
        if graphcomp.count_compositions_graph(built) != expected_ladders[n - 1]:
            failures.append(f"ladder n={n}")
        if graphcomp.family_count("ladder", n) != expected_ladders[n - 1]:
            failures.append(f"ladder recurrence n={n}")
    _report(4, "graph family closed forms match the subset DP", failures)


def test_criterion_05_ladder_binet():
    failures = []
    recurrence, newer = 2, 12
    for n in range(1, 51):
        binet = graphcomp.ladder_binet(n)
        if binet != recurrence:
            failures.append(f"n={n}: {binet} != {recurrence}")
        recurrence, newer = newer, 6 * newer + recurrence
    _report(5, "exact conjugate-pair closed form matches the ladder recurrence", failures)


def _leading_oracle(n, k, weak):
    """Independent route: sum bounded-part tail counts over the tail length.

    Uses the general bounded DP, not the leading-summand recurrence and not
    the series expansion.
    """
    if n < k:
        return 0
    bound = k if weak else k - 1
    total = 1 if n == k else 0
    if bound >= 1:
        for tail_parts in range(1, n - k + 1):
            total += compositions.count_restricted(n - k, tail_parts, PartBounds(1, bound))
    return total


def _avoiding_oracle(limit, k):
    """Independent route: convolution DP over the first part."""
    counts = [1] + [0] * limit
    for m in range(1, limit + 1):
        counts[m] = sum(counts[m - j] for j in range(1, m + 1) if j != k)
    return counts


def _distinct_partitions(n, largest=None):
    """Partitions of n into distinct parts, largest part first."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(largest, n), 0, -1):
        for rest in _distinct_partitions(n - first, first - 1):
            yield (first,) + rest


def test_criterion_06_generating_function_three_way_agreement():
    failures = []
    order = 40
    enumeration_top = 18

    enumerated = {n: _all_positive_compositions(n) for n in range(1, enumeration_top + 1)}
    for k in range(1, 7):
        strict = series.gf_leading_strict(k).expand(order)
        weak = series.gf_leading_weak(k).expand(order)
        avoid = series.gf_avoiding(k).expand(order)
        contain = series.gf_containing(k).expand(order)
        avoid_dp = _avoiding_oracle(order, k)
        for n in range(order + 1):
            checks = [
                ("strict", strict[n], compositions.count_leading_strict(n, k),
                 _leading_oracle(n, k, weak=False)),
                ("weak", weak[n], compositions.count_leading_weak(n, k),
                 _leading_oracle(n, k, weak=True)),
                ("avoid", avoid[n], compositions.count_avoiding(n, k) if n >= 1 else 0,
                 avoid_dp[n] if n >= 1 else 0),
                ("contain", contain[n],
                 compositions.count_containing(n, k) if n >= 1 else 0,
                 ((1 << (n - 1)) - avoid_dp[n]) if n >= 1 else 0),
            ]
            for label, from_series, from_recurrence, from_oracle in checks:
                if not (from_series == from_recurrence == from_oracle):
                    failures.append(
                        f"{label} k={k} n={n}: series={from_series} "
                        f"recurrence={from_recurrence} oracle={from_oracle}"
                    )
            if 1 <= n <= enumeration_top:
                listed = enumerated[n]
                if strict[n] != sum(
                    1 for c in listed if c[0] == k and all(p < k for p in c[1:])
                ):
                    failures.append(f"strict enumeration k={k} n={n}")
                if weak[n] != sum(
                    1 for c in listed if c[0] == k and all(p <= k for p in c[1:])
                ):
                    failures.append(f"weak enumeration k={k} n={n}")
                if avoid[n] != sum(1 for c in listed if k not in c):
                    failures.append(f"avoid enumeration k={k} n={n}")

    distinct_series = series.gf_distinct_total(order)
    for n in range(order + 1):
        from_recurrence = compositions.count_compositions_distinct_total(n)
        from_partitions = sum(
            exactnum.factorial(len(p)) for p in _distinct_partitions(n) if p
        )
        if not (distinct_series[n] == from_recurrence == from_partitions):
            failures.append(
                f"distinct-total n={n}: series={distinct_series[n]} "
                f"recurrence={from_recurrence} partitions={from_partitions}"
            )
    _report(6, "series, recurrences, and independent counts agree to n = 40", failures)


def test_criterion_07_shift_identity():
    failures = []
    for n in range(1, 40):
        strict_next = compositions.count_leading_strict_total(n + 1)
        weak_now = compositions.leading_weak_total(n)
        if strict_next != weak_now:
            failures.append(f"n={n}: {strict_next} != {weak_now}")
    order = 40
    strict_sum = series.TruncatedSeries.zero(order)
    weak_sum = series.TruncatedSeries.zero(order)
    for k in range(1, order + 1):
        strict_sum = strict_sum + series.gf_leading_strict(k).expand(order)
        weak_sum = weak_sum + series.gf_leading_weak(k).expand(order)
    z = series.TruncatedSeries((0, 1) + (0,) * (order - 1))
    if weak_sum.shifted(1) != strict_sum - z:
        failures.append("series identity z*Fweak != Fstrict - z")
    _report(7, "strict total at n+1 equals weak total at n, also as series", failures)


def test_criterion_08_avoiding_recurrence_correction():
    failures = []
    for k in range(1, 7):
        expansion = series.gf_avoiding(k).expand(40)
        for n in range(1, 41):
            if compositions.count_avoiding(n, k) != expansion[n]:
                failures.append(f"corrected k={k} n={n}")

    # the published recurrence ends in +c(n-k+1); from true seeds it yields
    # 5 at k=2, n=4 where the real count is 4
    k = 2
    seeds = _avoiding_oracle(k + 1, k)
    printed = [0] * 5
    for m in range(1, k + 2):
        printed[m] = seeds[m]
    for m in range(k + 2, 5):
        printed[m] = 2 * printed[m - 1] - printed[m - k] + printed[m - k + 1]
    if printed[4] != 5:
        failures.append(f"printed variant gave {printed[4]}, expected the known-bad 5")
    if compositions.count_avoiding(4, 2) != 4:
        failures.append("true count at k=2, n=4 is not 4")
    _report(8, "corrected avoidance recurrence matches the gf; printed one fails", failures)


def _set_partitions(items):
    if not items:
        yield []
        return
    rest, last = items[:-1], items[-1]
    for smaller in _set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] + [last]] + smaller[i + 1:]
        yield smaller + [[last]]


def test_criterion_09_appendix_identities():
    failures = []
    for n in range(1, 13):
        for k in range(1, n + 1):
            if exactnum.stirling2_via_compositions(n, k) != exactnum.stirling2(n, k):
                failures.append(f"second kind n={n} k={k}")
            if exactnum.stirling1_via_compositions(n, k) != exactnum.stirling1(n, k):
                failures.append(f"first kind n={n} k={k}")

    for eta in range(10):
        tallies = {}
        for partition in _set_partitions(list(range(eta))):
            sizes = {len(block) for block in partition}
            if len(sizes) <= 1:
                lam = sizes.pop() if sizes else None
                key = (len(partition), lam)
                tallies[key] = tallies.get(key, 0) + 1
        for lam in range(1, eta + 1):
            if eta % lam:
                continue
            kappa = eta // lam
            expected = tallies.get((kappa, lam), 0)
            if exactnum.equal_block_partitions(eta, kappa, lam) != expected:
                failures.append(f"equal blocks eta={eta} lam={lam}")
    if exactnum.equal_block_partitions(5, 2, 2) != 0:
        failures.append("equal blocks should vanish off the diagonal")

    for n in range(1, 19):
        for k in range(1, n + 1):
            lhs = exactnum.binomial_via_partition_multiplicities(n, k)
            if lhs != exactnum.binomial(n - 1, k - 1):
                failures.append(f"multiplicity sum n={n} k={k}")
    _report(9, "composition and partition summation identities hold", failures)


def test_criterion_10_sandwich_bound():
    failures = []
    rng = Random(1010)
    for index in range(200):
        n = rng.randint(1, 10)
        graph = graphcomp.random_connected_graph(rng, n, rng.uniform(0.0, 0.5))
        count = graphcomp.count_compositions_graph(graph)
        lower = 1 << (n - 1)
        upper = exactnum.bell(n)
        if not lower <= count <= upper:
            failures.append(f"graph {index} n={n}: {lower} <= {count} <= {upper} fails")
    _report(10, "200 random connected graphs stay between path and complete", failures)


def test_criterion_11_reduction_matches_dp():
    failures = []
    rng = Random(1111)
    for index in range(100):
        n = rng.randint(1, 12)
        graph = graphcomp.random_graph(rng, n, rng.uniform(0.1, 0.4))
        reduced = graphcomp.reduce_and_count(graph)
        direct = graphcomp.count_compositions_graph(graph)
        if reduced != direct:
            failures.append(f"graph {index} n={n}: {reduced} != {direct}")
    _report(11, "multiplicative decomposition matches the subset DP on 100 graphs", failures)
