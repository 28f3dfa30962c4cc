"""Tests for the special-number arithmetic, checked against brute force."""

import math
import tracemalloc
from fractions import Fraction
from itertools import permutations
from random import Random

import pytest
from hypothesis import given, strategies as st

from compcount import errors, exactnum


# --- independent oracles ------------------------------------------------

def set_partitions(items):
    """All partitions of a list, built by inserting the last element into
    every block of every smaller partition or into a new block."""
    if not items:
        yield []
        return
    rest, last = items[:-1], items[-1]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] + [last]] + smaller[i + 1:]
        yield smaller + [[last]]


def pascal_triangle(rows):
    triangle = [[1]]
    for n in range(1, rows):
        prev = triangle[-1]
        row = [1]
        for k in range(1, n):
            row.append(prev[k - 1] + prev[k])
        row.append(1)
        triangle.append(row)
    return triangle


def cycle_count(perm):
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return cycles


# --- factorial / binomial / multinomial ---------------------------------

def test_factorial_values():
    assert exactnum.factorial(0) == 1
    assert exactnum.factorial(1) == 1
    assert exactnum.factorial(5) == 120


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        exactnum.factorial(-1)


def test_binomial_values():
    assert exactnum.binomial(13, 5) == 1287
    assert exactnum.binomial(3, 1) == 3
    assert exactnum.binomial(4, 7) == 0
    assert exactnum.binomial(-2, 0) == 0
    assert exactnum.binomial(5, -1) == 0


def test_binomial_matches_pascal():
    triangle = pascal_triangle(13)
    for n in range(13):
        for k in range(n + 1):
            assert exactnum.binomial(n, k) == triangle[n][k]


def test_multinomial_values():
    assert exactnum.multinomial(4, [1, 3]) == 4
    assert exactnum.multinomial(4, [2, 2]) == 6
    assert exactnum.multinomial(7, [7]) == 1
    assert exactnum.multinomial(0, []) == 1


def test_multinomial_rejects_bad_sum():
    with pytest.raises(ValueError):
        exactnum.multinomial(5, [1, 3])
    with pytest.raises(ValueError):
        exactnum.multinomial(4, [-1, 5])


@given(st.lists(st.integers(min_value=0, max_value=8), max_size=6))
def test_multinomial_times_part_factorials_is_factorial(parts):
    n = sum(parts)
    product = exactnum.multinomial(n, parts)
    for p in parts:
        product *= math.factorial(p)
    assert product == math.factorial(n)


# --- Bell numbers --------------------------------------------------------

def test_bell_values():
    assert exactnum.bell(0) == 1
    assert exactnum.bell(3) == 5
    assert exactnum.bell(10) == 115975


def test_bell_matches_enumeration():
    for n in range(8):
        assert exactnum.bell(n) == sum(1 for _ in set_partitions(list(range(n))))


def test_bell_is_stirling2_row_sum():
    for n in range(16):
        assert exactnum.bell(n) == sum(exactnum.stirling2(n, k) for k in range(n + 1))


# --- Stirling numbers ----------------------------------------------------

def test_stirling2_values():
    assert exactnum.stirling2(0, 0) == 1
    assert exactnum.stirling2(4, 2) == 7
    assert exactnum.stirling2(3, 5) == 0


def test_stirling2_matches_enumeration():
    for n in range(8):
        for k in range(n + 2):
            expected = sum(1 for p in set_partitions(list(range(n))) if len(p) == k)
            assert exactnum.stirling2(n, k) == expected


def test_stirling1_values():
    assert exactnum.stirling1(0, 0) == 1
    assert exactnum.stirling1(4, 2) == 11
    assert exactnum.stirling1(4, 0) == 0


def test_stirling1_is_0_outside_its_triangle():
    assert exactnum.stirling1(-1, 0) == 0


def test_stirling1_counts_permutation_cycles():
    for n in range(7):
        for k in range(n + 1):
            expected = sum(1 for p in permutations(range(n)) if cycle_count(p) == k)
            assert exactnum.stirling1(n, k) == expected


def test_a_sweep_of_stirling_rows_holds_only_the_last():
    # each row of 1000-1063 is about 0.7 MB; a cache of 64 rows held 42 MB
    exactnum._stirling_row(999, False)
    tracemalloc.start()
    try:
        values = [exactnum.stirling2(n, 5) for n in range(1000, 1064)]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert values[-1] == sum((-1) ** (5 - j) * math.comb(5, j) * j ** 1063 for j in range(6)) // 120
    assert held < 3e6
    assert exactnum.stirling2(1063, 5) == values[-1] and exactnum.stirling2(1000, 5) == values[0]


# --- summation formulas --------------------------------------------------

def test_stirling2_via_compositions_values():
    assert exactnum.stirling2_via_compositions(4, 2) == 7
    assert exactnum.stirling2_via_compositions(3, 3) == 1
    for n in range(1, 9):
        assert exactnum.stirling2_via_compositions(n, 1) == 1


def test_stirling2_via_compositions_matches_recurrence():
    for n in range(1, 13):
        for k in range(1, n + 1):
            assert exactnum.stirling2_via_compositions(n, k) == exactnum.stirling2(n, k)


def test_stirling1_via_compositions_values():
    assert exactnum.stirling1_via_compositions(4, 2) == 11
    assert exactnum.stirling1_via_compositions(3, 1) == 2
    for n in range(1, 9):
        assert exactnum.stirling1_via_compositions(n, n) == 1


def test_stirling1_via_compositions_matches_recurrence():
    for n in range(1, 13):
        for k in range(1, n + 1):
            assert exactnum.stirling1_via_compositions(n, k) == exactnum.stirling1(n, k)


def test_summation_formulas_reject_nonpositive_args():
    with pytest.raises(ValueError):
        exactnum.stirling2_via_compositions(0, 1)
    with pytest.raises(ValueError):
        exactnum.stirling1_via_compositions(3, 0)


def test_stirling1_reciprocal_sum_example():
    # 12 * (1/3 + 1/4 + 1/3) over the splittings (1,3), (2,2), (3,1) of 4
    total = Fraction(1, 3) + Fraction(1, 4) + Fraction(1, 3)
    assert Fraction(24, 2) * total == 11


# --- equal-size blocks ---------------------------------------------------

def test_equal_block_partitions_values():
    assert exactnum.equal_block_partitions(4, 2, 2) == 3
    assert exactnum.equal_block_partitions(5, 2, 2) == 0
    assert exactnum.equal_block_partitions(6, 3, 2) == 15
    assert exactnum.equal_block_partitions(0, 0, 3) == 1


def test_equal_block_partitions_matches_enumeration():
    for kappa in range(4):
        for lam in range(1, 5):
            eta = kappa * lam
            if eta > 8:
                continue
            expected = sum(
                1
                for p in set_partitions(list(range(eta)))
                if len(p) == kappa and all(len(block) == lam for block in p)
            )
            assert exactnum.equal_block_partitions(eta, kappa, lam) == expected


def test_equal_block_partitions_rejects_bad_block_size():
    with pytest.raises(ValueError):
        exactnum.equal_block_partitions(4, 2, 0)


# --- binomial via partition multiplicities -------------------------------

def test_binomial_via_partition_multiplicities_values():
    assert exactnum.binomial_via_partition_multiplicities(4, 2) == 3
    assert exactnum.binomial_via_partition_multiplicities(6, 3) == 10
    for n in range(1, 10):
        assert exactnum.binomial_via_partition_multiplicities(n, 1) == 1


def test_binomial_via_partition_multiplicities_closed_form():
    for n in range(1, 19):
        for k in range(1, n + 1):
            assert exactnum.binomial_via_partition_multiplicities(n, k) == exactnum.binomial(n - 1, k - 1)


def test_binomial_via_partition_multiplicities_outside_support():
    assert exactnum.binomial_via_partition_multiplicities(3, 5) == 0
    assert exactnum.binomial_via_partition_multiplicities(0, 1) == 0


# --- exact division ------------------------------------------------------

def test_exact_div():
    assert exactnum.exact_div(720, 48) == 15
    with pytest.raises(ArithmeticError):
        exactnum.exact_div(7, 2)


# --- growing tables and iterative enumerators ---------------------------------

def bell_triangle(top):
    """Bell(0..top) from a Bell triangle built from scratch."""
    row, bells = [1], [1]
    for _ in range(top):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
        bells.append(row[0])
    return bells


def test_bell_table_answers_any_order_of_arguments():
    expected = bell_triangle(300)
    sizes = list(range(301)) * 2
    Random(4).shuffle(sizes)
    for n in sizes:
        assert exactnum.bell(n) == expected[n]
        info = exactnum.bell.cache_info()
        assert info.currsize <= info.maxsize
    bells, row = errors.KEPT["bell"]
    assert len(bells) == len(row) == 301


def test_stirling_rows_in_any_order_of_arguments():
    first = [[1]]
    second = [[1]]
    for m in range(1, 121):
        first.append([0] + [(m - 1) * (first[-1][k] if k < m else 0) + first[-1][k - 1]
                            for k in range(1, m + 1)])
        second.append([0] + [k * (second[-1][k] if k < m else 0) + second[-1][k - 1]
                             for k in range(1, m + 1)])
    sizes = list(range(121)) * 2
    Random(9).shuffle(sizes)
    for n in sizes:
        assert [exactnum.stirling1(n, k) for k in range(n + 1)] == first[n]
        assert [exactnum.stirling2(n, k) for k in range(n + 1)] == second[n]


def recursive_positive(n, k):
    if k == 0:
        return [()] if n == 0 else []
    return [(first,) + rest for first in range(1, n - k + 2)
            for rest in recursive_positive(n - first, k - 1)]


def recursive_partitions(n, k, largest=None):
    if k == 0:
        return [()] if n == 0 else []
    top = n - k + 1 if largest is None else min(largest, n - k + 1)
    return [(first,) + rest for first in range(top, 0, -1) if n - first <= (k - 1) * first
            for rest in recursive_partitions(n - first, k - 1, first)]


def test_iterative_enumerators_keep_the_recursive_order():
    for n in range(13):
        for k in range(n + 2):
            assert list(exactnum._positive_compositions(n, k)) == recursive_positive(n, k)
            assert list(exactnum._partitions_into_k_parts(n, k)) == recursive_partitions(n, k)


def test_enumerator_depth_does_not_grow_with_the_part_count():
    assert exactnum.stirling2_via_compositions(1200, 1200) == 1
    assert exactnum.stirling1_via_compositions(1200, 1200) == 1
    assert exactnum.binomial_via_partition_multiplicities(1500, 1500) == 1
