"""Exact integer arithmetic for counting: factorials, binomials, Bell and
Stirling numbers, and their composition/partition summation formulas.

Counts are plain Python ints (arbitrary precision). All functions are pure.
Division appears only where a formula guarantees divisibility, and every such
division checks that the remainder is zero; intermediate non-integer sums are
accumulated as exact ``fractions.Fraction`` values, never floats.
"""

import math
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from functools import lru_cache
from itertools import accumulate

from .errors import check_work, pricing


def exact_div(numerator: int, divisor: int) -> int:
    """Divide two integers, insisting on a zero remainder."""
    quotient, remainder = divmod(numerator, divisor)
    if remainder:
        raise ArithmeticError(f"{numerator} is not divisible by {divisor}")
    return quotient


def factorial(n: int) -> int:
    """n! for n >= 0."""
    if n < 0:
        raise ValueError("factorial requires n >= 0")
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    """Binomial coefficient, total over all integers: 0 outside 0 <= k <= n."""
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def triangular_root(n: int) -> int:
    """The largest k with k(k+1)/2 <= n, for n >= 0: the most distinct
    nonzero parts that a composition of n can have."""
    return (math.isqrt(8 * n + 1) - 1) // 2


def multinomial(n: int, parts: Iterable[int]) -> int:
    """n! / (p_1! p_2! ... p_m!) for nonnegative parts summing to n.

    A part list that does not sum to n is a structural error, not a zero.
    """
    parts = list(parts)
    if any(p < 0 for p in parts):
        raise ValueError("multinomial parts must be nonnegative")
    if sum(parts) != n:
        raise ValueError(f"parts sum to {sum(parts)}, expected {n}")
    result = factorial(n)
    for p in parts:
        result = exact_div(result, factorial(p))
    return result


# Bell numbers 0..len-1 and the last Bell-triangle row, which starts with the last.
_BELLS = [1]
_BELL_ROW = [1]


@lru_cache(maxsize=16)
def bell(n: int) -> int:
    """Number of set partitions of an n-element set; bell(0) == 1.

    Row m of the Bell triangle starts with Bell(m), the last entry of row
    m - 1, and adds the entry above at every step. The numbers found so far
    and the last row are kept, so a larger n costs only the rows it adds.
    The work is priced as if no row were kept: n(n+1)/2 additions of numbers
    of at most n log2(n+1) bits, two rows held at once.
    """
    if n < 0:
        return 0
    with pricing(what := f"bell({n})"):
        check_work(what, n * (n + 1) / 2, n * math.log2(n + 1), held=2 * n + 2)
    global _BELL_ROW
    while len(_BELLS) <= n:
        _BELL_ROW = list(accumulate(_BELL_ROW, initial=_BELL_ROW[-1]))
        _BELLS.append(_BELL_ROW[0])
    return _BELLS[n]


# Per kind (True for the first), the index and entries of the last row built.
_STIRLING_LAST = {False: (0, (1,)), True: (0, (1,))}


def _stirling_row(n: int, first_kind: bool) -> tuple[int, ...]:
    """Row n of the Stirling triangle of either kind (see stirling1 and
    stirling2), continued from the last row built unless that is past n, so
    an increasing sweep builds each row once and only the last is kept; a
    repeated n returns it. The work is priced as in bell, as if no row were
    kept."""
    with pricing(what := f"stirling{1 if first_kind else 2} row {n}"):
        check_work(what, n * (n + 1) / 2, n * math.log2(n + 1), held=2 * n + 2)
    m, row = _STIRLING_LAST[first_kind]
    if m > n:
        m, row = 0, (1,)
    while m < n:
        m += 1
        above = row + (0,)
        row = (0,) + tuple((m - 1 if first_kind else k) * above[k] + above[k - 1]
                           for k in range(1, m + 1))
    _STIRLING_LAST[first_kind] = (m, row)
    return row


def stirling2(n: int, k: int) -> int:
    """Partitions of an n-set into k nonempty blocks, by the standard
    recurrence {n,k} = k*{n-1,k} + {n-1,k-1} with {0,0} = 1."""
    if n < 0 or k < 0 or k > n:
        return 0
    return _stirling_row(n, False)[k]


def stirling1(n: int, k: int) -> int:
    """Unsigned Stirling numbers of the first kind (permutations of n
    elements with k cycles), via [n,k] = (n-1)[n-1,k] + [n-1,k-1]."""
    if n < 0 or k < 0 or k > n:
        return 0
    return _stirling_row(n, True)[k]


def nested_parts(n: int, k: int, choices: Callable) -> Iterator[tuple[int, ...]]:
    """The k-tuples that nested loops build, part by part, from
    choices(remaining, parts_left, previous_part) (previous_part is None for
    the first part), keeping those that use up n exactly, in loop order.
    Iterative, so the depth of Python recursion does not grow with k."""
    if k == 0:
        if n == 0:
            yield ()
        return
    prefix: list[int] = []
    loops = [iter(choices(n, k, None))]
    remaining = n
    while loops:
        part = next(loops[-1], None)
        if part is None:
            loops.pop()
            if prefix:
                remaining += prefix.pop()
        elif len(prefix) == k - 1:
            if part == remaining:
                yield (*prefix, part)
        else:
            prefix.append(part)
            remaining -= part
            loops.append(iter(choices(remaining, k - len(prefix), part)))


def _positive_compositions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Ordered k-tuples of positive integers summing to n, lexicographically.

    The Stirling sums over them are priced first: C(n - 1, k - 1) tuples,
    each 64 + b/32 operations on numbers of b = log2(n!) bits (fit to
    stirling2_via_compositions, 4.2-555 us a tuple at n = 20-2000;
    stirling1_via_compositions takes 0.5-0.8 times that to n = 200 and
    0.2-0.5 times from n = 1000; CPython 3.11, 2-vCPU x86-64 guest)."""
    with pricing(what := f"the compositions of {n} into {k} positive parts"):
        bits = math.lgamma(n + 1) / math.log(2)
        count = math.exp(math.lgamma(n) - math.lgamma(k) - math.lgamma(n - k + 1)) if 1 <= k <= n else 1
        check_work(what, count * (64 + bits / 32), bits, held=k + 4, printed=0)
    return nested_parts(n, k, lambda rest, left, previous: range(1, rest - left + 2))


def stirling2_via_compositions(n: int, k: int) -> int:
    """Second-kind Stirling number as a multinomial sum over the ordered ways
    of splitting n into k positive summands, divided (exactly) by k!."""
    if n < 1 or k < 1:
        raise ValueError("requires n >= 1 and k >= 1")
    return exact_div(sum(multinomial(n, parts) for parts in _positive_compositions(n, k)), factorial(k))


def stirling1_via_compositions(n: int, k: int) -> int:
    """First-kind Stirling number as (n!/k!) times the sum of reciprocal part
    products over the same ordered splittings.

    The reciprocal sum is accumulated as an exact rational; the final product
    must come out an integer.
    """
    from fractions import Fraction  # imported here, its only use, to keep start-up light

    if n < 1 or k < 1:
        raise ValueError("requires n >= 1 and k >= 1")
    total = sum((Fraction(1, math.prod(parts)) for parts in _positive_compositions(n, k)), Fraction(0))
    result = Fraction(factorial(n), factorial(k)) * total
    if result.denominator != 1:
        raise ArithmeticError("reciprocal sum did not yield an integer")
    return result.numerator


def equal_block_partitions(eta: int, kappa: int, lam: int) -> int:
    """Partitions of an eta-set into kappa blocks of equal size lam.

    Zero unless eta == kappa * lam; otherwise eta! / (kappa! * (lam!)^kappa),
    which divides exactly.
    """
    if lam < 1:
        raise ValueError("block size must be positive")
    if eta < 0 or kappa < 0 or eta != kappa * lam:
        return 0
    return exact_div(factorial(eta), factorial(kappa) * factorial(lam) ** kappa)


def _partitions_into_k_parts(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Nonincreasing k-tuples of positive integers summing to n, in reverse
    lexicographic order: each part is at most the one before, and at least
    the mean of what is left for it and the parts after it.

    The multiplicity sum over them is priced first, from their number
    p(n, k): the partitions of n - k into parts of at most k, counted in
    floats one pass a part size 2..min(k, n - k) over a table of n - k + 1
    cells, priced at k additions a cell (where the table is built, p(n, k)
    is at least half its cells), then 7k + 40 operations a partition (fit
    to 4.7-17 us a partition at k = 2-20 and n = 50-3000; CPython 3.11,
    2-vCPU x86-64 guest)."""
    cells = n - k + 1 if min(k, n - k) > 1 else 1
    check_work(what := f"the partitions of {n} into {k} parts", k * cells, 64, held=cells, printed=0)
    ways = [1.0] * cells
    for size in range(2, min(k, cells - 1) + 1):
        for total in range(size, cells):
            ways[total] += ways[total - size]
    check_work(what, ways[-1] * (7 * k + 40), 0, held=k + 4, printed=0)

    def choices(rest: int, left: int, previous: int | None) -> range:
        top = rest - left + 1 if previous is None else min(previous, rest - left + 1)
        return range(top, max(-(-rest // left), 1) - 1, -1)

    return nested_parts(n, k, choices)


def binomial_via_partition_multiplicities(n: int, k: int) -> int:
    """Binomial(n-1, k-1) recovered as a sum over the partitions of n into
    exactly k parts: each partition with part multiplicities (m_1, m_2, ...)
    contributes k! / (m_1! m_2! ...), the number of its orderings."""
    if n < 1 or k < 1 or k > n:
        return 0
    return sum(multinomial(k, Counter(parts).values()) for parts in _partitions_into_k_parts(n, k))
