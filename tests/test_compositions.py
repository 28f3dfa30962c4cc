"""Tests for composition enumeration and all the counters built on it."""

import math
import time
import tracemalloc
from collections import deque
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from compcount import compositions, errors, exactnum, graphcomp, series
from compcount.compositions import PartBounds, NONNEGATIVE_PARTS, POSITIVE_PARTS
from compcount.errors import ResourceLimitError


def distinct(parts):
    return len(set(parts)) == len(parts)


def all_positive_compositions(n):
    out = []
    for k in range(1, n + 1):
        out.extend(compositions.enumerate_compositions(n, k, POSITIVE_PARTS))
    return out


# --- enumeration ----------------------------------------------------------

def test_enumeration_listings():
    assert compositions.enumerate_compositions(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert compositions.enumerate_compositions(0, 0) == [()]
    assert compositions.enumerate_compositions(0, 0, PartBounds(3, 7)) == [()]
    assert compositions.enumerate_compositions(3, 2, POSITIVE_PARTS, predicate=distinct) == [
        (1, 2),
        (2, 1),
    ]


def test_enumeration_is_lexicographic_and_within_bounds():
    bounds = PartBounds(1, 4)
    listed = compositions.enumerate_compositions(9, 3, bounds)
    assert listed == sorted(listed)
    assert len(listed) == len(set(listed))
    for parts in listed:
        assert sum(parts) == 9
        assert all(1 <= p <= 4 for p in parts)


def test_enumeration_empty_cases():
    assert compositions.enumerate_compositions(-1, 2) == []
    assert compositions.enumerate_compositions(3, -1) == []
    assert compositions.enumerate_compositions(3, 0) == []
    assert compositions.enumerate_compositions(1, 3, PartBounds(1, None)) == []


def test_enumeration_limit_guard():
    with pytest.raises(ResourceLimitError):
        compositions.enumerate_compositions(40, 20)


# --- restricted counts ----------------------------------------------------

def test_count_restricted_values():
    assert compositions.count_restricted(8, 6) == 1287
    assert compositions.count_restricted(4, 2, POSITIVE_PARTS) == 3
    assert compositions.count_restricted(5, 2, PartBounds(1, 2)) == 0
    assert compositions.count_restricted(0, 0) == 1
    assert compositions.count_restricted(0, 0, PartBounds(2, 9)) == 1
    assert compositions.count_restricted(-1, 3) == 0
    assert compositions.count_restricted(3, -2) == 0


def test_count_restricted_matches_enumeration():
    bounds_cases = [
        NONNEGATIVE_PARTS,
        POSITIVE_PARTS,
        PartBounds(1, 2),
        PartBounds(2, 5),
        PartBounds(0, 3),
        PartBounds(3, 3),
    ]
    for n in range(11):
        for k in range(8):
            for bounds in bounds_cases:
                assert compositions.count_restricted(n, k, bounds) == len(
                    compositions.enumerate_compositions(n, k, bounds)
                )


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=60),
    k=st.integers(min_value=0, max_value=10),
    lower=st.integers(min_value=0, max_value=4),
    width=st.none() | st.integers(min_value=0, max_value=12),
)
def test_count_restricted_matches_the_dp(n, k, lower, width):
    upper = None if width is None else lower + width
    assert compositions.count_restricted(n, k, PartBounds(lower, upper)) == \
        compositions._count_by_dp(n, k, lower, upper)


def test_counts_the_bounded_dp_refused_are_answered_quickly():
    start = time.perf_counter()
    assert compositions.count_restricted(5000, 100, PartBounds(2, None)) == math.comb(4899, 99)
    assert compositions.count_restricted(300000, 1000, PartBounds(1, 50)) == 0
    assert compositions.count_restricted(10 ** 6, 1000, PartBounds(0, 2000)) > 0
    assert time.perf_counter() - start < 1
    with pytest.raises(ResourceLimitError):
        compositions._count_by_dp(5000, 100, 2, None)


def test_closed_forms_match_general_dp():
    for n in range(16):
        for k in range(1, 16):
            assert compositions.count_restricted(n, k) == compositions._count_by_dp(n, k, 0, None)
            assert compositions.count_restricted(n, k, POSITIVE_PARTS) == compositions._count_by_dp(
                n, k, 1, None
            )


@settings(max_examples=60)
@given(
    n=st.integers(min_value=0, max_value=14),
    k=st.integers(min_value=0, max_value=8),
    lower=st.integers(min_value=0, max_value=3),
    upper=st.integers(min_value=0, max_value=10),
)
def test_count_grows_with_upper_bound(n, k, lower, upper):
    if upper < lower:
        lower, upper = upper, lower
    narrow = compositions.count_restricted(n, k, PartBounds(lower, upper))
    wide = compositions.count_restricted(n, k, PartBounds(lower, upper + 1))
    unbounded = compositions.count_restricted(n, k, PartBounds(lower, None))
    assert narrow <= wide <= unbounded


def test_part_bounds_validation():
    with pytest.raises(ValueError):
        PartBounds(-1, 4)
    with pytest.raises(ValueError):
        PartBounds(3, 2)


# --- distinct parts -------------------------------------------------------

def test_distinct_partition_values():
    assert compositions.count_partitions_distinct(0, 0) == 1
    assert compositions.count_partitions_distinct(6, 3) == 1
    assert compositions.count_partitions_distinct(9, 3) == 3
    assert compositions.count_partitions_distinct(-1, 0) == 0
    assert compositions.count_partitions_distinct(4, -1) == 0


def test_distinct_composition_values():
    assert compositions.count_compositions_distinct(0, 0) == 1
    assert compositions.count_compositions_distinct(6, 3) == 6
    assert compositions.count_compositions_distinct(3, 2) == 2


def test_distinct_counts_match_enumeration():
    for n in range(13):
        for k in range(n + 1):
            listed = compositions.enumerate_compositions(n, k, POSITIVE_PARTS, predicate=distinct)
            assert compositions.count_compositions_distinct(n, k) == len(listed)
            assert compositions.count_partitions_distinct(n, k) == len(
                {tuple(sorted(c)) for c in listed}
            )


def test_ordered_is_factorial_times_unordered():
    from compcount import exactnum

    for n in range(31):
        for k in range(n + 1):
            assert compositions.count_compositions_distinct(n, k) == exactnum.factorial(
                k
            ) * compositions.count_partitions_distinct(n, k)


def test_distinct_vanishes_below_triangular_sum():
    for n in range(31):
        for k in range(n + 1):
            if k * (k + 1) // 2 > n:
                assert compositions.count_partitions_distinct(n, k) == 0


def test_distinct_totals():
    assert compositions.count_compositions_distinct_total(3) == 3
    assert compositions.count_compositions_distinct_total(6) == 11
    assert compositions.count_compositions_distinct_total(0) == 0
    assert compositions.count_compositions_distinct_total(-4) == 0
    for n in range(1, 16):
        listed = [c for c in all_positive_compositions(n) if distinct(c)]
        assert compositions.count_compositions_distinct_total(n) == len(listed)


# --- leading-summand constraints -------------------------------------------

def test_leading_strict_values():
    assert compositions.count_leading_strict(5, 3) == 2
    assert compositions.count_leading_strict(1, 1) == 1
    assert compositions.count_leading_strict(4, 1) == 0
    assert compositions.count_leading_strict(2, 3) == 0
    assert compositions.count_leading_strict(4, 0) == 0


def test_leading_weak_values():
    assert compositions.count_leading_weak(5, 2) == 3
    assert compositions.count_leading_weak(4, 1) == 1
    for n in range(1, 9):
        assert compositions.count_leading_weak(n, n) == 1


def test_per_k_leading_counts_match_the_series():
    top = 400
    for k in range(1, 13):
        strict = series.gf_leading_strict(k).expand(top).coefficients
        weak = series.gf_leading_weak(k).expand(top).coefficients
        assert [compositions.count_leading_strict(n, k) for n in range(top + 1)] == list(strict)
        assert [compositions.count_leading_weak(n, k) for n in range(top + 1)] == list(weak)


def test_a_large_per_k_leading_count_is_answered_by_fibonacci_higher():
    start = time.perf_counter()
    got = compositions.count_leading_strict(100000, 3)
    assert time.perf_counter() - start < 1
    assert got == compositions.fibonacci_higher(2, 99997)


def test_leading_counters_match_enumeration():
    for n in range(1, 13):
        everything = all_positive_compositions(n)
        for k in range(1, min(n, 7) + 1):
            strict = sum(1 for c in everything if c[0] == k and all(p < k for p in c[1:]))
            weak = sum(1 for c in everything if c[0] == k and all(p <= k for p in c[1:]))
            assert compositions.count_leading_strict(n, k) == strict
            assert compositions.count_leading_weak(n, k) == weak


def test_leading_totals():
    assert compositions.count_leading_strict_total(4) == 3
    assert compositions.count_leading_strict_total(1) == 1
    assert compositions.count_leading_strict_total(3) == 2
    assert compositions.leading_weak_total(2) == 2
    assert compositions.leading_weak_total(3) == 3
    assert compositions.leading_weak_total(1) == 1
    assert compositions.count_leading_strict_total(0) == 0
    assert compositions.leading_weak_total(0) == 0


def test_leading_totals_shift_identity():
    for n in range(1, 26):
        assert compositions.count_leading_strict_total(n + 1) == compositions.leading_weak_total(n)


# --- avoiding / containing a part -------------------------------------------

def test_avoiding_values():
    assert compositions.count_avoiding(3, 2) == 2
    assert compositions.count_avoiding(4, 2) == 4
    assert compositions.count_avoiding(1, 1) == 0
    assert compositions.count_avoiding(0, 3) == 0
    # a k past 2^63 does not fit a deque length; no part of n exceeds n anyway
    for k in (2 ** 63 - 1, 2 ** 63, 10 ** 19):
        assert compositions.count_avoiding(5, k) == 16


def test_containing_values():
    assert compositions.count_containing(2, 1) == 1
    assert compositions.count_containing(3, 2) == 2
    for n in range(1, 9):
        assert compositions.count_containing(n, n + 1) == compositions.count_containing(n, 10 ** 19) == 0


def test_avoid_contain_match_enumeration():
    for n in range(1, 13):
        everything = all_positive_compositions(n)
        for k in range(1, 7):
            avoiding = sum(1 for c in everything if k not in c)
            assert compositions.count_avoiding(n, k) == avoiding
            assert compositions.count_containing(n, k) == len(everything) - avoiding


def test_avoid_contain_complement():
    for n in range(1, 21):
        for k in range(1, 8):
            total = compositions.count_avoiding(n, k) + compositions.count_containing(n, k)
            assert total == 1 << (n - 1)


def test_avoiding_keeps_only_the_values_its_recurrence_reads():
    # all 20001 values of about 2.5 KB each would peak near 25 MB
    tracemalloc.start()
    try:
        compositions.count_avoiding(20000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_avoid_rejects_nonpositive_part():
    with pytest.raises(ValueError):
        compositions.count_avoiding(5, 0)
    with pytest.raises(ValueError):
        compositions.count_containing(5, -1)


def test_the_jump_matches_the_window_recurrence():
    # the jump's taps, gf_avoiding's denominator negated: (1, 1) at k = 1,
    # where 2c(m-1) - c(m-1) + c(m-2) merge, and (2, 0, 0, -1, 1) at k = 4
    assert series.gf_avoiding(1).denominator == (1, -1, -1)
    assert series.gf_avoiding(4).denominator == (1, -2, 0, 0, 1, -1)
    for n in range(1, 301):
        for k in (*range(1, 26), n, n + 1, 10 ** 19):
            k = min(k, n + 1)  # as count_avoiding clamps it
            gf = series.gf_avoiding(k)
            assert series._jump(gf, n) == [compositions._avoiding_window(n, k)[-1]], (n, k)
            if k < n:  # count_avoiding's jump gives the whole window it keeps
                assert series._jump(gf, n, k + 1) == list(compositions._avoiding_window(n, k)), (n, k)


def recurrence_gf(taps, seeds):
    """The GF of c(0) = 0, c(1..d) = seeds and c(m) = sum_j taps[j-1] c(m-j)
    past them, d = len(taps): Q = 1 - sum_j taps[j-1] z^j over P = Q C
    truncated to degree d."""
    q, c = (1, *(-tap for tap in taps)), (0, *seeds)
    return series.RationalGF([sum(q[j] * c[m - j] for j in range(m + 1)) for m in range(len(c))], q)


def test_the_jump_on_the_ladder_taps_matches_the_closed_form():
    # L(n) = 6 L(n - 1) + L(n - 2), the n-rung ladder's count, from 2 and 12
    ladder = recurrence_gf((6, 1), (2, 12))
    for n in range(1, 2001):
        assert series._jump(ladder, n) == [graphcomp.ladder_binet(n)], n


def test_the_jump_on_unit_taps_gives_the_higher_order_fibonacci_numbers():
    for m in range(1, 9):
        gf = recurrence_gf((1,) * m, [compositions.fibonacci_higher(m, n) for n in range(1, m + 1)])
        for n in range(1, 200):
            assert series._jump(gf, n) == [compositions.fibonacci_higher(m, n)], (m, n)


def test_the_jump_with_zero_and_negative_taps_matches_a_plain_loop():
    rng = Random(1985)
    for _ in range(200):
        d = rng.randint(1, 7)
        taps = [rng.choice((-3, -1, 0, 0, 1, 2, 5)) for _ in range(d)]
        values = [0] + [rng.randint(-50, 50) for _ in range(d)]  # c(0..d)
        while len(values) < 151:
            values.append(sum(tap * values[-j] for j, tap in enumerate(taps, start=1)))
        gf = recurrence_gf(taps, values[1:d + 1])
        for n in range(1, 151):
            width = min(n + 1, 1 + n % 4)
            assert series._jump(gf, n, width) == values[n + 1 - width:n + 1], (taps, values[:d + 1], n)


def test_a_large_avoid_count_is_quick_and_matches_the_recurrence_mod_a_prime():
    n, k, p = 300000, 4, (1 << 61) - 1
    start = time.perf_counter()
    avoiding = compositions.count_avoiding(n, k)
    assert time.perf_counter() - start < 2
    window = deque([0] * (k + 1), maxlen=k + 1)
    for m in range(1, n + 1):
        window.append((2 * window[-1] - window[1] + window[0] + (m == 1) - (m == k) + (m == k + 1)) % p)
    assert avoiding % p == window[-1]
    assert avoiding + compositions.count_containing(n, k) == 1 << (n - 1)


def test_avoiding_takes_the_window_where_only_its_price_fits(monkeypatch):
    routes = []
    # the jump to c(n - k..n) raises x to the power n - k - 1, k + 1 = len(taps)
    monkeypatch.setattr(series, "_recurrence_power",
                        lambda taps, e: routes.append(("jump", e + len(taps))) or [0])
    monkeypatch.setattr(compositions, "_avoiding_window", lambda n, k: routes.append(("window", n)) or [0])
    # the jump is the faster route for k = 30 at n = 340000, but its price is
    # over the budget and the window's is not
    assert compositions._by_jump(30, 340000)
    compositions.count_avoiding(340000, 30)
    assert routes.pop() == ("window", 340000)
    with pytest.raises(ResourceLimitError):  # where the window's price refuses it
        compositions.count_avoiding(351501, 30)
    # the first size the jump's price refuses at k = 4
    compositions.count_avoiding(1621154, 4)
    assert routes.pop() == ("jump", 1621154)
    with pytest.raises(ResourceLimitError):
        compositions.count_avoiding(1621155, 4)


def fresh(count, *args):
    """count(*args) with nothing kept from an earlier call."""
    errors.forget()
    return count(*args)


def test_only_the_jump_keeps_its_window():
    # the window route's values grow with k: c(10000..20000) would hold about 20 MB
    assert not compositions._by_jump(10000, 20000)
    compositions.count_avoiding(20000, 10000)
    compositions.count_containing(30000, 40)
    assert errors.KEPT == {}


def test_a_later_avoid_count_moves_where_its_steps_cost_less_than_the_jump(monkeypatch):
    routes = []
    true_jump, true_move = series._jump, compositions._move
    monkeypatch.setattr(series, "_jump", lambda gf, n, width: routes.append("jump") or true_jump(gf, n, width))
    monkeypatch.setattr(compositions, "_move", lambda window, steps, *recurrence:
                        routes.append("move") or true_move(window, steps, *recurrence))
    # 500 steps against a jump of about 790 additions at k = 5 and n = 12500,
    # and 300 against about 210 at k = 3 and n = 5300
    for k, n, later, route in ((5, 12000, 12500, "move"), (5, 12000, 11500, "move"), (3, 5000, 5300, "jump")):
        compositions.count_avoiding(n, k)
        del routes[:]
        assert compositions.count_avoiding(later, k) == fresh(compositions.count_avoiding, later, k)
        assert routes[0] == route, (k, n, later)


def test_neighbouring_calls_give_the_values_of_calls_with_nothing_kept():
    rng = Random(37)
    weak, strict = compositions.leading_weak_total, compositions.count_leading_strict_total
    avoid, contain = compositions.count_avoiding, compositions.count_containing
    walks = []
    for _ in range(12):  # strict and weak walks of 2 or 3 sizes, up or down, as the seed-7 order mixes them
        n, step = rng.choice((rng.randint(800, 1300), rng.randint(1, 60))), rng.choice((1, -1))
        walks.append([(rng.choice((weak, strict)), n + step * i) for i in range(rng.randint(2, 3))])
    for _ in range(40):  # the avoided part alternating between walks, some far from the last
        k = rng.choice((1, 2, 3, 5, 9, 12))
        n = rng.choice((rng.randint(1, 40), rng.randint(200, 3000), rng.randint(2000, 12000)))
        step = rng.choice((1, -1))
        walks.append([(rng.choice((avoid, contain)), max(1, n + step * i), k) for i in range(rng.randint(1, 4))])
    rng.shuffle(walks)
    calls = [call for walk in walks for call in walk]
    moved = [count(*args) for count, *args in calls]
    assert moved == [fresh(count, *args) for count, *args in calls]
    # and the stateless routes, on the small sizes
    for (count, *args), value in zip(calls, moved):
        if count is avoid and args[0] <= 3000:
            assert value == compositions._avoiding_window(args[0], min(args[1], args[0] + 1))[-1], args
        if count is weak and args[0] <= 60:
            assert value == sum(compositions.fibonacci_higher(k, args[0] - k) for k in range(1, args[0] + 1))


def test_refusals_do_not_depend_on_a_neighbouring_call(monkeypatch):
    for count, args, after in ((compositions.count_avoiding, (5000, 3), (5001, 3)),
                               (compositions.count_containing, (5000, 3), (4999, 3)),
                               (compositions.leading_weak_total, (1000,), (1001,)),
                               (compositions.count_leading_strict_total, (1000,), (999,))):
        value, kept = fresh(count, *after), count(*args)
        monkeypatch.setattr(errors, "WORK_BUDGET", 1e4)
        for size in (args, after):  # the same call, and its neighbour, after it
            with pytest.raises(ResourceLimitError):
                count(*size)
        with pytest.raises(ResourceLimitError):
            fresh(count, *after)
        monkeypatch.undo()
        assert (count(*args), count(*after)) == (kept, value)


def test_a_total_after_its_neighbour_moves_each_window_once_and_sums_one_column_per_q(monkeypatch):
    n = 1000
    m0 = compositions._leading_crossover(n)
    assert compositions._leading_crossover(n + 1) == m0
    want = fresh(compositions.leading_weak_total, n + 1)
    fresh(compositions.leading_weak_total, n)
    columns, moves = [], []
    true_column, true_move = compositions._leading_column, compositions._move
    monkeypatch.setattr(compositions, "_leading_column",
                        lambda size, q, m0: columns.append((size, q)) or true_column(size, q, m0))
    monkeypatch.setattr(compositions, "_move", lambda window, steps, *recurrence:
                        moves.append((len(window), steps)) or true_move(window, steps, *recurrence))
    monkeypatch.setattr(compositions, "_fibonacci_window", None)  # no window starts afresh
    assert compositions.leading_weak_total(n + 1) == want
    assert moves == [(m + 1, 1) for m in range(1, m0)]
    assert columns == [(n + 1, q) for q in range(1, (n + 2) // (m0 + 1) + 1)]
    # the strict total of n + 2 reads the same total: nothing moves, nothing is summed
    del moves[:], columns[:]
    assert compositions.count_leading_strict_total(n + 2) == want
    assert moves == [(m + 1, 0) for m in range(1, m0)] and columns == []


def test_one_avoided_part_and_one_leading_total_are_kept():
    for k in range(1, 40):
        for n in (k, 3 * k, 500, 499, 2000 + k):
            compositions.count_avoiding(n, k)
            compositions.count_containing(n + 1, k)
    compositions.count_avoiding(3000, 9)
    for n in (*range(1, 60), 1200, 5, 900, 901):
        compositions.leading_weak_total(n)
    compositions.count_avoiding(2039, 39)  # the window route keeps nothing, and leaves the jump's window
    assert set(errors.KEPT) == {"avoiding", "leading"}
    k, n, window = errors.KEPT["avoiding"]
    assert (k, n, list(window)) == (9, 3000, list(compositions._avoiding_window(3000, 9)))
    n, windows, columns = errors.KEPT["leading"]
    m0 = compositions._leading_crossover(901)
    assert n == 901 and sorted(windows) == list(range(1, m0))
    assert all(list(window) == list(compositions._fibonacci_window(m, n - m)) for m, window in windows.items())
    assert sorted(columns) == [(900, m0), (901, m0)]
    assert all(len(sums) == 902 // (m0 + 1) for sums in columns.values())


# --- bounded-part totals ----------------------------------------------------

def test_fibonacci_higher_values():
    assert compositions.fibonacci_higher(1, 5) == 1
    assert compositions.fibonacci_higher(2, 4) == 5
    assert compositions.fibonacci_higher(3, 0) == 1
    assert compositions.fibonacci_higher(4, -2) == 0


def test_fibonacci_higher_matches_enumeration():
    for m in range(1, 5):
        for n in range(11):
            if n == 0:
                expected = 1
            else:
                expected = sum(
                    len(compositions.enumerate_compositions(n, k, PartBounds(1, m)))
                    for k in range(1, n + 1)
                )
            assert compositions.fibonacci_higher(m, n) == expected


def test_fibonacci_higher_rejects_bad_bound():
    with pytest.raises(ValueError):
        compositions.fibonacci_higher(0, 3)


# --- triangles ----------------------------------------------------------------

def test_triangle_values():
    assert compositions.triangle("partitions-distinct", 1) == ((1,),)
    four = compositions.triangle("compositions-distinct", 4)
    assert four[3] == (0, 1, 2)
    seven = compositions.triangle("partitions-distinct", 7)
    assert seven[6] == (0, 1, 2, 1)


def test_triangle_rows_match_counters():
    tri = compositions.triangle("compositions-distinct", 12)
    assert len(tri) == 12
    for n, row in enumerate(tri):
        assert len(row) == exactnum.triangular_root(n) + 1
        for k in range(n + 2):
            entry = row[k] if k < len(row) else 0
            assert entry == compositions.count_compositions_distinct(n, k)


def test_triangle_rejects_bad_arguments():
    with pytest.raises(ValueError):
        compositions.triangle("nonsense", 3)
    with pytest.raises(ValueError):
        compositions.triangle("partitions-distinct", 0)


# --- the fast routes against the routes they replaced -------------------------

def full_distinct_rows(last_row, ordered):
    """The untruncated distinct-part array, k = 0..m in row m, by the same
    unit-cutting recurrence over every k."""
    rows = []
    for m in range(last_row + 1):
        row = [1] + [0] * m if m == 0 else [0] * (m + 1)
        for k in range(1, m + 1):
            src = rows[m - k]
            same = src[k] if k < len(src) else 0
            fewer = src[k - 1] if k - 1 < len(src) else 0
            row[k] = same + (k * fewer if ordered else fewer)
        rows.append(row)
    return rows


def test_truncated_rows_match_the_full_recurrence():
    unordered, ordered = full_distinct_rows(300, False), full_distinct_rows(300, True)
    for n in range(301):
        for k in range(n + 3):
            want = unordered[n][k] if k <= n else 0
            assert compositions.count_partitions_distinct(n, k) == want
            want = ordered[n][k] if k <= n else 0
            assert compositions.count_compositions_distinct(n, k) == want
        assert compositions.count_compositions_distinct_total(n) == (sum(ordered[n][1:]) if n else 0)
    for kind, full in (("partitions-distinct", unordered), ("compositions-distinct", ordered)):
        for n, row in enumerate(compositions.triangle(kind, 301)):
            # the truncation rests on every entry past triangular_root(n) being 0
            head = exactnum.triangular_root(n) + 1
            assert list(row) == full[n][:head]
            assert not any(full[n][head:])


def test_distinct_table_grows_to_the_largest_row_asked():
    sizes = list(range(1, 601))
    Random(6).shuffle(sizes)
    for n in sizes:
        compositions.count_compositions_distinct_total(n)
    table = errors.KEPT[compositions.COMPOSITIONS_DISTINCT]
    assert len(table) == 601
    entries = sum(len(row) for row in table)
    assert entries == sum((math.isqrt(8 * m + 1) - 1) // 2 + 1 for m in range(601))
    assert entries < 601 ** 1.5  # about 0.94 n^1.5 + n, not n^2 / 2
    assert compositions.PARTITIONS_DISTINCT not in errors.KEPT


def test_leading_totals_match_the_sums_of_the_per_k_recurrences():
    top = 400
    # each series expansion runs its per-k recurrence by long division
    for gf, total in ((series.gf_leading_strict, compositions.count_leading_strict_total),
                      (series.gf_leading_weak, compositions.leading_weak_total)):
        sums = [0] * (top + 1)
        for k in range(1, top + 1):
            for n, value in enumerate(gf(k).expand(top).coefficients):
                sums[n] += value
        assert [total(n) for n in range(top + 1)] == sums


def leading_by_first_part(n):
    """The per-first-part sum that the column sums replaced: over every
    first part k, the compositions of n - k into parts of at most k."""
    return sum(compositions.fibonacci_higher(k, n - k) for k in range(1, n + 1))


def assert_leading_totals_match_the_first_part_sums(sizes):
    # over first parts k >= 2, the strict terms fibonacci_higher(k - 1, n - k)
    # are the weak terms of n - 1
    by_first_part = {m: leading_by_first_part(m) for m in {*sizes, *(n - 1 for n in sizes)}}
    for n in sizes:
        assert compositions.leading_weak_total(n) == (by_first_part[n] if n else 0)
        strict = int(n == 1) + by_first_part[n - 1] if n else 0
        assert compositions.count_leading_strict_total(n) == strict


# the 35 sizes of the 40 leading totals in the seed-7 perfbench sequences workload
SEED_7_LEADING = (821, 822, 828, 829, 874, 875, 878, 879, 922, 923, 925, 926, 972, 973,
                  977, 978, 1023, 1024, 1029, 1030, 1072, 1073, 1077, 1078, 1126, 1127,
                  1173, 1174, 1222, 1223, 1227, 1228, 1278, 1279, 1280)


def test_leading_totals_match_the_per_first_part_sums():
    assert_leading_totals_match_the_first_part_sums([*range(401), *SEED_7_LEADING])


def test_leading_totals_match_on_each_side_of_a_change_of_the_crossover():
    crossover = compositions._leading_crossover
    changes = [n for n in range(1, 1500) if crossover(n) != crossover(n - 1)]
    assert len(changes) > 10
    # the strict total of n + 1 reads the columns of n
    assert_leading_totals_match_the_first_part_sums(
        sorted({size for n in changes for size in (n - 1, n, n + 1, n + 2)}))


@pytest.mark.parametrize("crossover", [1, 2, 3, 7, 14, 60, 200])
def test_leading_totals_do_not_depend_on_where_the_columns_start(monkeypatch, crossover):
    want = [leading_by_first_part(n) for n in range(160)]
    monkeypatch.setattr(compositions, "_by_window", lambda m, n: m < crossover)
    assert [compositions._leading_total(n) for n in range(160)] == want


def test_leading_totals_are_refused_from_9030(monkeypatch):
    monkeypatch.setattr(compositions, "_leading_total", lambda n: 0)
    for total in (compositions.leading_weak_total, compositions.count_leading_strict_total):
        assert total(9029) == 0
        with pytest.raises(ResourceLimitError, match=f"{total.__name__}\\(9030\\)"):
            total(9030)


def test_fibonacci_higher_matches_its_recurrence():
    for m in range(1, 12):
        values = [1]
        for j in range(1, 300):
            values.append(sum(values[j - i] for i in range(1, min(m, j) + 1)))
        assert [compositions.fibonacci_higher(m, n) for n in range(300)] == values


def test_both_routes_of_fibonacci_higher_agree(monkeypatch):
    cases = [(m, n) for m in (*range(1, 13), 20, 50, 150, 151, 152) for n in range(160)]
    values = {}
    for by_window in (True, False):
        monkeypatch.setattr(compositions, "_by_window", lambda m, n: by_window)
        values[by_window] = [compositions._fibonacci_higher(m, n) for m, n in cases]
    assert values[True] == values[False]


def test_fibonacci_higher_leaves_the_window_where_the_binomial_sums_win():
    # measured at n = 20000: the binomial sums win from m = 44
    assert compositions._by_window(40, 20000)
    assert not compositions._by_window(50, 20000)


def test_fibonacci_higher_at_small_m_is_quick_and_huge_arguments_are_refused():
    start = time.perf_counter()
    assert compositions.fibonacci_higher(1, 20000) == 1
    a, b = 1, 1
    for _ in range(20000):
        a, b = b, a + b
    assert compositions.fibonacci_higher(2, 20000) == a
    assert time.perf_counter() - start < 1
    for m in (1, 40, 10 ** 6):
        with pytest.raises(ResourceLimitError, match=f"fibonacci_higher\\({m}, 1000000000000\\)"):
            compositions.fibonacci_higher(m, 10 ** 12)


def recursive_compositions(n, k, lo, hi):
    """The recursive enumeration that the iterative one replaced."""
    if k == 0:
        return [()] if n == 0 else []
    top = n if hi is None else min(hi, n)
    return [(part,) + rest for part in range(lo, top + 1)
            for rest in recursive_compositions(n - part, k - 1, lo, hi)]


def test_iterative_enumeration_keeps_the_recursive_order():
    for lo, hi in ((0, None), (1, None), (1, 3), (2, 5), (0, 2), (3, 3)):
        for n in range(11):
            for k in range(6):
                assert compositions.enumerate_compositions(n, k, PartBounds(lo, hi)) == \
                    recursive_compositions(n, k, lo, hi)


def test_enumeration_depth_does_not_grow_with_the_part_count():
    assert compositions.enumerate_compositions(0, 2000) == [(0,) * 2000]
    assert compositions.enumerate_compositions(2001, 2000, POSITIVE_PARTS) == \
        [(1,) * i + (2,) + (1,) * (1999 - i) for i in reversed(range(2000))]
