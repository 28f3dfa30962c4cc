"""Tests for truncated series arithmetic and the concrete generating functions."""

import decimal
import math
from decimal import Decimal
from random import Random

import pytest
from hypothesis import example, given, strategies as st

from compcount import compositions, errors, series
from compcount.errors import ResourceLimitError
from compcount.series import RationalGF, TruncatedSeries


# --- series arithmetic ------------------------------------------------------

def test_addition_and_cancellation():
    one_plus_z = TruncatedSeries((1, 1))
    one_minus_z = TruncatedSeries((1, -1))
    assert (one_plus_z + one_minus_z).coefficients == (2, 0)
    z = TruncatedSeries((0, 1))
    assert (z + z).coefficients == (0, 2)


def test_addition_truncates_to_shorter_operand():
    short = TruncatedSeries.zero(3)
    long = TruncatedSeries.zero(5)
    assert (short + long).order == 3
    assert (long + short).order == 3


def test_multiplication():
    one_plus_z = TruncatedSeries((1, 1, 0))
    squared = one_plus_z * one_plus_z
    assert squared.coefficients == (1, 2, 1)
    z_plus_z2 = TruncatedSeries((0, 1, 1, 0))
    assert (z_plus_z2 * z_plus_z2)[3] == 2
    anything = TruncatedSeries((3, -1, 4, -1, 5))
    one = TruncatedSeries((1, 0, 0, 0, 0))
    assert anything * one == anything
    assert (2 * anything).coefficients == (6, -2, 8, -2, 10)


def test_coefficient_beyond_order_is_an_error():
    s = TruncatedSeries((1, 2, 3))
    assert s[2] == 3
    with pytest.raises(IndexError):
        s.coefficient(3)
    with pytest.raises(IndexError):
        s[-1]


def test_shift_keeps_order():
    s = TruncatedSeries((1, 2, 3, 4))
    assert s.shifted(2).coefficients == (0, 0, 1, 2)


@pytest.mark.parametrize("call, message", [
    (lambda: TruncatedSeries((1, 2)).shifted(-1), "shift exponent must be nonnegative"),
    (lambda: series.gf_leading_strict(0), "k must be positive"),
    (lambda: series.gf_avoiding(0), "k must be positive"),
    (lambda: series.gf_distinct_total(-1), "order must be nonnegative"),
])
def test_arguments_outside_their_domain_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# --- rational expansion ------------------------------------------------------

def test_expansion_of_all_compositions_gf():
    expansion = series.series_from_rational(series.gf_all_compositions(), 5)
    assert expansion.coefficients == (0, 1, 2, 4, 8, 16)


def test_expansion_of_geometric_series():
    geometric = RationalGF((1,), (1, -1))
    assert series.series_from_rational(geometric, 3).coefficients == (1, 1, 1, 1)


def test_expansion_of_weak_leading_gf_k2():
    # (1-z)z^2/(1-2z+z^3) collapses to z^2/(1-z-z^2), a shifted Fibonacci
    # series; cross-checked coefficient by coefficient against the counter.
    gf = RationalGF((0, 0, 1, -1), (1, -2, 0, 1))
    expansion = series.series_from_rational(gf, 6)
    assert expansion.coefficients == (0, 0, 1, 1, 2, 3, 5)
    for n in range(7):
        assert expansion[n] == compositions.count_leading_weak(n, 2)


def test_expansion_rejects_non_unit_constant():
    with pytest.raises(ValueError):
        series.series_from_rational(RationalGF((1,), (2, 1)), 4)
    with pytest.raises(ValueError):
        RationalGF((1,), (0, 1))


# --- leading-summand generating functions ------------------------------------

def test_strict_gf_k1_is_z():
    expansion = series.gf_leading_strict(1).expand(8)
    assert expansion.coefficients == (0, 1, 0, 0, 0, 0, 0, 0, 0)


def test_strict_gf_values():
    assert series.gf_leading_strict(3).expand(5)[5] == 2
    k2 = series.gf_leading_strict(2).expand(12)
    assert all(k2[n] == 1 for n in range(2, 13))


def test_weak_gf_values():
    k1 = series.gf_leading_weak(1).expand(9)
    assert k1.coefficients == (0,) + (1,) * 9
    assert series.gf_leading_weak(2).expand(5)[5] == 3


def test_weak_gf_denominator_factorization():
    lhs = TruncatedSeries((1, -1, 0, 0)) * TruncatedSeries((1, -1, -1, 0))
    assert lhs.coefficients == (1, -2, 0, 1)


def test_leading_gfs_match_recurrences():
    for k in range(1, 7):
        strict = series.gf_leading_strict(k).expand(40)
        weak = series.gf_leading_weak(k).expand(40)
        for n in range(41):
            assert strict[n] == compositions.count_leading_strict(n, k)
            assert weak[n] == compositions.count_leading_weak(n, k)


def test_both_strict_denominator_forms_agree():
    for k in range(2, 7):
        plain = RationalGF((0,) * k + (1,), (1,) + (-1,) * (k - 1))
        assert plain.expand(40) == series.gf_leading_strict(k).expand(40)


def test_geometric_block_identity():
    # (1-z)(1 + z + ... + z^(k-1)) telescopes to 1 - z^k
    for k in range(2, 7):
        block = TruncatedSeries((1,) * k + (0,))
        one_minus_z = TruncatedSeries((1, -1) + (0,) * (k - 1))
        expected = [1] + [0] * k
        expected[k] = -1
        assert (one_minus_z * block).coefficients == tuple(expected)


@pytest.mark.parametrize("family", series.SERIES_FAMILIES)
def test_the_jump_matches_the_long_division(family):
    # n up to the last seed reads the long division; gf_leading_strict(1),
    # whose numerator outruns its denominator, needs that at n = 1
    for k in range(1, 13):
        gf = series.SERIES_FAMILIES[family](k)
        expansion = series.series_from_rational(gf, 300).coefficients
        for n in range(301):
            for width in {1, k + 1} & set(range(1, n + 2)):
                assert series._jump(gf, n, width) == list(expansion[n + 1 - width:n + 1]), (k, n, width)


def test_the_jump_refuses_what_it_cannot_read():
    with pytest.raises(ValueError):  # its taps are the denominator's tail over a constant term of 1
        series._jump(RationalGF((1,), (-1, 1)), 5)
    with pytest.raises(ValueError):  # no coefficient before z^0
        series._jump(series.gf_avoiding(3), 2, 4)


# --- avoid / contain ----------------------------------------------------------

def test_avoiding_gf_values():
    k2 = series.gf_avoiding(2).expand(4)
    assert k2.coefficients[1:] == (1, 1, 2, 4)
    assert series.gf_avoiding(1).expand(1)[1] == 0
    assert series.gf_avoiding(3).expand(3)[3] == 3


def test_containing_gf_values():
    assert series.gf_containing(1).expand(2)[2] == 1
    assert series.gf_containing(2).expand(3)[3] == 2
    assert series.gf_containing(5).expand(4)[4] == 0


def test_avoid_contain_gfs_match_counters():
    for k in range(1, 7):
        avoid = series.gf_avoiding(k).expand(40)
        contain = series.gf_containing(k).expand(40)
        for n in range(41):
            assert avoid[n] == compositions.count_avoiding(n, k)
            assert contain[n] == compositions.count_containing(n, k)


def test_containing_equals_difference_of_expansions():
    for k in range(1, 6):
        everything = series.gf_all_compositions().expand(30)
        avoid = series.gf_avoiding(k).expand(30)
        assert series.gf_containing(k).expand(30) == everything - avoid


# --- distinct-part total series -------------------------------------------------

def test_distinct_total_series_values():
    expansion = series.gf_distinct_total(6)
    assert expansion[0] == 0
    assert expansion[3] == 3
    assert expansion[6] == 11


def test_distinct_total_series_matches_counter():
    expansion = series.gf_distinct_total(40)
    for n in range(41):
        assert expansion[n] == compositions.count_compositions_distinct_total(n)


# --- series identities -----------------------------------------------------------

def test_shift_identity_between_totals():
    order = 40
    strict_sum = TruncatedSeries.zero(order)
    weak_sum = TruncatedSeries.zero(order)
    for k in range(1, order + 1):
        strict_sum = strict_sum + series.gf_leading_strict(k).expand(order)
        weak_sum = weak_sum + series.gf_leading_weak(k).expand(order)
    z = TruncatedSeries((0, 1) + (0,) * (order - 1))
    assert weak_sum.shifted(1) == strict_sum - z
    for n in range(1, order + 1):
        assert strict_sum[n] == compositions.count_leading_strict_total(n)
        assert weak_sum[n] == compositions.leading_weak_total(n)


small_polys = st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=5)


@given(
    na=small_polys,
    nb=small_polys,
    da=small_polys,
    db=small_polys,
    flip_a=st.booleans(),
    flip_b=st.booleans(),
)
def test_expansion_is_multiplicative(na, nb, da, db, flip_a, flip_b):
    da[0] = -1 if flip_a else 1
    db[0] = -1 if flip_b else 1
    a = RationalGF(tuple(na), tuple(da))
    b = RationalGF(tuple(nb), tuple(db))
    assert (a * b).expand(20) == a.expand(20) * b.expand(20)


# --- the fast routes against the routes they replaced -------------------------

def decimal_division(gf, order):
    """gf's coefficients 0..order as Decimals, by one long division over its
    whole denominator."""
    with decimal.localcontext(series._exact_context()):
        return series._long_division([*map(Decimal, gf.numerator)], gf.denominator, order, Decimal(0))


@given(num=st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6),
       den=st.lists(st.integers(min_value=-4, max_value=4), max_size=6),
       lead=st.sampled_from((1, -1)), order=st.integers(min_value=0, max_value=30))
@example(num=[0, 1, 0], den=[], lead=-1, order=4)  # zeros negated
def test_the_decimal_division_matches_the_int_one(num, den, lead, order):
    gf = RationalGF(tuple(num), (lead, *den))
    decimals = decimal_division(gf, order)
    assert all(isinstance(value, Decimal) for value in decimals)
    # equal text, so no zero prints as -0
    assert list(map(str, decimals)) == list(map(str, series.series_from_rational(gf, order).coefficients))


def test_the_decimal_division_raises_where_it_would_round():
    context = series._exact_context().copy()
    context.prec = 10
    num, den = series.gf_all_compositions().numerator, series.gf_all_compositions().denominator
    with decimal.localcontext(context), pytest.raises(decimal.Inexact):
        # 2^34 has 11 digits
        series._long_division([*map(Decimal, num)], [*map(Decimal, den)], 40, Decimal(0))
    with decimal.localcontext(context):
        assert series._long_division([*map(Decimal, num)], [*map(Decimal, den)], 33, Decimal(0))[-1] == 2 ** 32


def dense_long_division(num, den, order):
    """Long division over every denominator term, zero or not."""
    coeffs = []
    for m in range(order + 1):
        acc = num[m] if m < len(num) else 0
        for j in range(1, min(m, len(den) - 1) + 1):
            acc -= den[j] * coeffs[m - j]
        coeffs.append(acc * den[0])
    return tuple(coeffs)


def test_sparse_long_division_matches_the_dense_one():
    rng = Random(8)
    for _ in range(200):
        num = tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 8)))
        den = (rng.choice((1, -1)),) + tuple(rng.choice((0, 0, 0, -2, -1, 1, 3))
                                             for _ in range(rng.randint(0, 9)))
        order = rng.randint(0, 40)
        assert series.series_from_rational(RationalGF(num, den), order).coefficients == \
            dense_long_division(num, den, order)


def test_distinct_total_series_matches_the_per_k_rational_expansions():
    order = 200
    total = [0] * (order + 1)
    k = 1
    while k * (k + 1) // 2 <= order:
        den = (1,)
        for i in range(1, k + 1):  # multiply out (1-z)(1-z^2)...(1-z^k)
            factor = (1,) + (0,) * (i - 1) + (-1,)
            den = tuple(sum(den[a] * factor[b - a] for a in range(len(den)) if 0 <= b - a < len(factor))
                        for b in range(len(den) + i))
        num = (0,) * (k * (k + 1) // 2) + (math.factorial(k),)
        for m, c in enumerate(dense_long_division(num, den, order)):
            total[m] += c
        k += 1
    for top in (0, 1, 2, 3, 10, 57, order):
        assert series.gf_distinct_total(top).coefficients == tuple(total[: top + 1])


@pytest.mark.parametrize("family", sorted(series.SERIES_FAMILIES))
def test_a_k_past_the_order_changes_no_coefficient(family):
    assert series.family_series(family, 10 ** 9, 20) == series.family_series(family, 21, 20)
    for order in range(8):
        for k in range(order + 1, order + 5):
            assert series.family_series(family, k, order) == series.SERIES_FAMILIES[family](k).expand(order)


# --- printed series continued from the last expansion ----------------------------

def as_text(values):
    return list(map(str, values))


def test_a_walk_of_printed_series_matches_the_int_expansions():
    # orders that go up, down, repeat and jump, k past order + 1, families switching
    rng = Random(40)
    family, k, order = "avoid", 3, 10
    for _ in range(300):
        move = rng.random()
        if move < 0.15:
            family = rng.choice(sorted(series.SERIES_FAMILIES))
        elif move < 0.3:
            k = rng.choice((1, 2, 3, 5, 8, 12, order + 1, order + 2, 10 ** 6))
        order = max(0, rng.choice((order, order + 1, order + 2, order - 1, order - 7, order + 30,
                                   rng.randrange(120))))
        assert as_text(series.family_decimals(family, k, order)) == \
            as_text(series.family_series(family, k, order).coefficients), (family, k, order)


def test_an_interrupted_extension_leaves_the_next_call_correct(monkeypatch):
    real = series._divide

    def divide_then_no_memory(coeffs, den, start):
        real(coeffs, den, start)
        coeffs[-1] += 1  # the list is left wrong, as a half-finished division would leave it
        raise MemoryError

    expected = as_text(series.family_series("fweak", 4, 90).coefficients)
    assert as_text(series.family_decimals("fweak", 4, 60)) == expected[:61]
    monkeypatch.setattr(series, "_divide", divide_then_no_memory)
    with pytest.raises(MemoryError):
        series.family_decimals("fweak", 4, 90)
    assert errors.KEPT == {}
    monkeypatch.setattr(series, "_divide", real)
    for order in (90, 60, 75):
        assert as_text(series.family_decimals("fweak", 4, order)) == expected[:order + 1]


def test_the_last_series_keeps_its_most_coefficients_and_divides_only_those_it_lacks(monkeypatch):
    divided = []
    real = series._divide

    def recorded(coeffs, den, start):
        divided.append((start, len(coeffs)))
        real(coeffs, den, start)

    monkeypatch.setattr(series, "_divide", recorded)
    for order in (30, 40, 20, 41):
        printed = series.family_decimals("avoid", 5, order)
    assert divided == [(0, 31), (31, 41), (41, 41), (41, 42)]
    kept_gf, kept = errors.KEPT["decimals"]
    assert kept_gf == series.gf_avoiding(5) and len(kept) == 42
    assert printed == kept and printed is not kept
    printed[3] = Decimal(-1)  # the caller's list is its own
    assert series.family_decimals("avoid", 5, 3)[3] == series.family_series("avoid", 5, 3)[3]
    # another series replaces it; a k past order + 1 is kept as order + 1, so
    # contain with k = 10^6 at order 10 and with k = 11 are the same series
    divided.clear()
    series.family_decimals("contain", 10 ** 6, 10)
    assert errors.KEPT["decimals"][0] == series.gf_containing(11)
    assert [start for start, _ in divided] == [0, 0]  # by D, then by 1 - 2z
    # continued: the 11 kept terms, fewer than len(D) - 1 = 12, are all
    # turned back into their quotient by D, D divides the two missing terms
    # and 1 - 2z all 13
    series.family_decimals("contain", 11, 12)
    assert divided[2:] == [(11, 13), (0, 13)] and len(errors.KEPT["decimals"][1]) == 13
    # at order 12, k = 10^6 is k = 13: a different series, found afresh
    series.family_decimals("contain", 10 ** 6, 12)
    assert errors.KEPT["decimals"][0] == series.gf_containing(13) and divided[4:] == [(0, 13), (0, 13)]
    # with k = 6, D = 1 - 2z + z^6 - z^7 reads the 7 terms before each one
    # it divides: a kept series continues whatever share it holds, D divides
    # only the missing terms and 1 - 2z those from 7 below the first, and a
    # shorter order reads a prefix
    for walk, route in (((10, 2900, 20), [(0, 11), (0, 11), (11, 2901), (4, 2901)]),
                        ((2000, 2900), [(0, 2001), (0, 2001), (2001, 2901), (1994, 2901)]),
                        ((2899, 2900), [(0, 2900), (0, 2900), (2900, 2901), (2893, 2901)])):
        errors.forget()
        del divided[:]
        printed = [series.family_decimals("contain", 6, order) for order in walk]
        assert divided == route
        for order, coeffs in zip(walk, printed):
            assert as_text(coeffs) == as_text(series.family_series("contain", 6, order).coefficients)


def test_a_kept_series_is_priced_as_if_nothing_were_kept(monkeypatch):
    series.family_decimals("contain", 4, 2000)
    monkeypatch.setattr(errors, "WORK_BUDGET", 1e5)
    with pytest.raises(ResourceLimitError):
        series.family_decimals("contain", 4, 1999)
    assert errors.KEPT["decimals"][0] == series.gf_containing(4)  # a refusal takes nothing out


@pytest.mark.parametrize("k", range(1, 13))
def test_the_factored_contain_division_matches_the_product_denominator(k):
    for order in (0, k - 1, k, k + 2, 300):
        errors.forget()
        factored = series.family_decimals("contain", k, order)
        assert all(isinstance(value, Decimal) for value in factored)
        assert as_text(factored) == as_text(decimal_division(series.gf_containing(min(k, order + 1)), order))
