"""Counting and enumeration of integer compositions under part constraints.

A composition of n is an ordered tuple of integer parts summing to n; order
is significant, so (1, 2) and (2, 1) are different. ``enumerate_compositions``
lists solutions explicitly and serves as the brute-force oracle for every
counter here; the counters themselves use closed forms, dynamic programs, or
linear recurrences, all in exact integer arithmetic.
"""

import math
from collections import deque
from collections.abc import Callable
from itertools import repeat
from operator import lshift

from . import COMPOSITIONS_DISTINCT, PARTITIONS_DISTINCT, exactnum, series
from .errors import KEPT, Frozen, ResourceLimitError, check_work, karatsuba, pricing

Composition = tuple[int, ...]

TRIANGLE_KINDS = (PARTITIONS_DISTINCT, COMPOSITIONS_DISTINCT)


class PartBounds(Frozen):
    """Inclusive part-value bounds; ``upper=None`` means unbounded above."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower: int = 0, upper: int | None = None):
        if lower < 0:
            raise ValueError("lower part bound must be nonnegative")
        if upper is not None and upper < lower:
            raise ValueError("upper part bound is below the lower bound")
        super().__init__(lower, upper)


NONNEGATIVE_PARTS = PartBounds(0, None)
POSITIVE_PARTS = PartBounds(1, None)


def enumerate_compositions(
    n: int,
    k: int,
    bounds: PartBounds = NONNEGATIVE_PARTS,
    predicate: Callable[[Composition], bool] | None = None,
) -> list[Composition]:
    """List every k-part composition of n within the bounds, in lexicographic
    order, optionally filtered by a predicate on the whole tuple.

    This is the reference oracle for the counters in this module. It is
    priced before the first tuple, from the count_restricted(n, k, bounds)
    tuples it lists before the predicate filters them: k + 10 operations
    each, and all of them held at 8k + 64 bytes (fit to 0.95-3.7 us and
    77-241 traced bytes a tuple at k = 2-24; CPython 3.11, 2-vCPU x86-64
    guest), so a ResourceLimitError comes before any is listed.
    """
    total = count_restricted(n, k, bounds)
    check_work(f"enumerate_compositions({n}, {k})", total * (k + 10), 0, held=total * (k + 8) // 6, printed=0)
    if n < 0 or k < 0:
        return []
    lo, hi = bounds.lower, bounds.upper

    def choices(remaining: int, parts_left: int, previous: int | None) -> range:
        # parts that leave a rest the other parts_left - 1 parts can make
        most = (parts_left - 1) * hi if hi is not None else 0 if parts_left == 1 else remaining
        first, last = max(lo, remaining - most), remaining - (parts_left - 1) * lo
        return range(first, last + 1 if hi is None else min(hi, last) + 1)

    return [parts for parts in exactnum.nested_parts(n, k, choices)
            if predicate is None or predicate(parts)]


def count_restricted(n: int, k: int, bounds: PartBounds = NONNEGATIVE_PARTS) -> int:
    """Number of k-part compositions of n with every part inside the bounds.

    With each part shifted down by a = bounds.lower, these are the k-part
    compositions of r = n - k a into parts of at most b - a, counted by
    inclusion-exclusion over the parts of at least s = b - a + 1:
    sum_{i=0..t} (-1)^i C(k, i) C(r - i s + k - 1, k - 1), t = min(k, r // s)
    (Stanley, EC1 1.2). Unbounded above, t = 0: the stars-and-bars binomial.
    Total: returns 0 whenever no solution exists. _count_by_dp is its oracle
    in verify and the tests.
    """
    if n < 0 or k < 1:
        return int(n == k == 0)
    r = n - k * bounds.lower
    if r < 0 or bounds.upper is not None and r > k * (bounds.upper - bounds.lower):
        return 0
    s = r + 1 if bounds.upper is None else bounds.upper - bounds.lower + 1
    t = min(k, r // s)
    # math.comb(N, K) costs about min(K, N - K) products; no term, and no
    # partial sum, exceeds 2^t times the count without an upper bound
    with pricing(what := f"count_restricted({n}, {k}) with parts in [{bounds.lower}, {bounds.upper}]"):
        check_work(what, (t + 1) * (min(k - 1, r) + 2), _count_bits(r, k) + t, held=3)
    return sum((-1) ** i * math.comb(k, i) * math.comb(r - i * s + k - 1, k - 1)
               for i in range(t + 1))


def _count_bits(n: int, k: int) -> float:
    """Bits of binomial(n+k-1, k-1), the k-part compositions of n >= 0 into
    parts >= 0, which bounds every count, and every partial count of the
    dynamic program, of k-part compositions of at most n."""
    if k < 1:
        return 1
    lg = math.lgamma
    return (lg(n + k) - lg(k) - lg(n + 1)) / math.log(2) + 1


def _count_by_dp(n: int, k: int, lower: int, upper: int | None) -> int:
    """The bounded-part count by a dynamic program over (parts used, running
    sum): the oracle for count_restricted in verify and the tests, not a
    route. It takes at most k (n+1) additions per part value in range."""
    top = n if upper is None else upper
    parts = max(min(top, n) - lower + 1, 0)
    check_work(f"count_restricted({n}, {k}) with parts in [{lower}, {upper}]",
               k * (n + 1) * parts, _count_bits(n, k), held=2 * (n + 1))
    ways = [1] + [0] * n
    for _ in range(k):
        nxt = [0] * (n + 1)
        for total, count in enumerate(ways):
            if count:
                for part in range(lower, min(top, n - total) + 1):
                    nxt[total + part] += count
        ways = nxt
    return ways[n]


def _distinct_table_size(last_row: int) -> tuple[float, float]:
    """Entries of the distinct-part table up to last_row (about 0.94 n^1.5),
    and a bound on their bits: k! e^(pi sqrt(n/3)) for the largest k."""
    n = max(last_row, 0)
    top = exactnum.triangular_root(n)
    bits = (math.lgamma(top + 1) + math.pi * math.sqrt(n / 3)) / math.log(2) + 1
    return 0.95 * n ** 1.5 + n + 1, bits


def _distinct_rows(last_row: int, ordered: bool) -> list[tuple[int, ...]]:
    """Rows 0..last_row, at least, of the distinct-nonzero-part array.

    Row recurrence: removing one unit from each of the k parts either keeps
    k distinct parts (smallest part was > 1) or leaves k-1 (smallest part was
    exactly 1); for ordered counts the reattached unit part can sit in any of
    the k positions. Row m stops at the largest k with k(k+1)/2 <= m, the
    least sum of k distinct parts, since every later entry is zero. Each
    table, kept under its triangle kind, grows to the largest row asked for,
    at the cost of the rows it adds only, priced as if it were empty."""
    with pricing(what := f"the distinct-part table to row {last_row}"):
        entries, bits = _distinct_table_size(last_row)
        check_work(what, entries, bits, held=entries)
    rows = KEPT.setdefault(COMPOSITIONS_DISTINCT if ordered else PARTITIONS_DISTINCT, [(1,)])
    for m in range(len(rows), last_row + 1):
        row = [0]
        for k in range(1, exactnum.triangular_root(m) + 1):
            src = rows[m - k]
            same = src[k] if k < len(src) else 0
            row.append(same + (k * src[k - 1] if ordered else src[k - 1]))
        rows.append(tuple(row))
    return rows


def _distinct_entry(n: int, k: int, ordered: bool) -> int:
    if n < 0 or k < 0 or k * (k + 1) // 2 > n:
        return 0
    return _distinct_rows(n, ordered)[n][k]


def count_partitions_distinct(n: int, k: int) -> int:
    """Partitions of n into k distinct nonzero parts."""
    return _distinct_entry(n, k, False)


def count_compositions_distinct(n: int, k: int) -> int:
    """Compositions of n into k distinct nonzero parts; equals
    k! * count_partitions_distinct(n, k)."""
    return _distinct_entry(n, k, True)


def count_compositions_distinct_total(n: int) -> int:
    """All compositions of n into distinct nonzero parts, summed over every
    part count k >= 1: the sum of the truncated row n of the ordered table.
    The total for n <= 0 is 0 even though the k = 0 entry at n = 0 is 1."""
    if n <= 0:
        return 0
    return sum(_distinct_rows(n, True)[n])


def count_leading_strict(n: int, k: int) -> int:
    """Compositions of n into positive parts whose first part is exactly k
    and every later part is strictly smaller than k: those of n - k into
    parts of at most k - 1. gf_leading_strict(k) is the second route."""
    if k < 1 or n < k:
        return 0
    return int(n == 1) if k == 1 else fibonacci_higher(k - 1, n - k)


def count_leading_weak(n: int, k: int) -> int:
    """Compositions of n into positive parts whose first part is exactly k
    and no later part exceeds k: those of n - k into parts of at most k.
    gf_leading_weak(k) is the second route."""
    if k < 1 or n < k:
        return 0
    return fibonacci_higher(k, n - k)


def _check_binomial_sums(what: str, n: int, binomials: float) -> None:
    """Refuse sums of the given number of binomials of n bits, each about
    log2(n)/4 Karatsuba products (fit to timings at n = 1300-6000)."""
    products = binomials * math.log2(n + 1) / 4
    check_work(what, karatsuba(products, n), n, held=1)


def _check_leading_total(name: str, n: int) -> None:
    """Refuse a leading total of n: 2(n/k + 1) binomials for each k, the
    price of the per-first-part sums that _leading_total replaced, kept so
    that no refusal moved. At 4 ns a word step it is 5-8 times the time of
    _leading_total at n = 800-1300, 12-18 times at 3000 and 20-31 times at
    6000-9029 (2-vCPU x86-64 guest, CPython 3.11), where it was 3-4, 11-14
    and 16-18 times that of the per-first-part sums."""
    with pricing(what := f"{name}({n})"):
        _check_binomial_sums(what, n, 2 * n * (math.log(n) + 2))


def count_leading_strict_total(n: int) -> int:
    """Compositions of n whose first part is strictly larger than the rest:
    over every first part k, those of n - k into parts of at most k - 1,
    fibonacci_higher(k - 1, n - k). That is _leading_total(n - 1), plus the
    composition (1) at n = 1. The sum over k of the gf_leading_strict(k)
    series is the second route; the sum over k of fibonacci_higher is the
    oracle of the column sums."""
    if n < 1:
        return 0
    _check_leading_total("count_leading_strict_total", n)
    return int(n == 1) + _leading_total(n - 1)


def leading_weak_total(n: int) -> int:
    """Compositions of n whose first part is a (weak) maximum: over every
    first part k, those of n - k into parts of at most k, fibonacci_higher(k,
    n - k), which is _leading_total(n). The sum over k of the
    gf_leading_weak(k) series is the second route; the sum over k of
    fibonacci_higher is the oracle of the column sums."""
    if n < 1:
        return 0
    _check_leading_total("leading_weak_total", n)
    return _leading_total(n)


def _leading_total(n: int) -> int:
    """The sum over m >= 1 of fibonacci_higher(m, n - m), unpriced: one
    window recurrence for each m below _by_window's crossover; from m0, the
    first m past it, each a(n - m) - a(n - m - 1) of _fibonacci_higher's
    binomial form, summed by column, one for each count q - 1 of oversize
    parts at n and at n - 1, the columns alternating in sign with q. A later
    call moves each window kept from the last n |n - last| steps where that
    is fewer than its n - m from scratch, and sums only the columns (by size
    and m0) that it lacks."""
    m0 = _leading_crossover(n)
    last, kept, columns = KEPT.pop("leading", (n, {}, {}))
    windows = {m: _move(kept[m], n - last, *_FIBONACCI_STEPS) if m in kept and abs(n - last) < n - m
               else _fibonacci_window(m, n - m) for m in range(1, m0)}
    tops = (n + 1) // (m0 + 1)
    sums = {}
    for size in (n, n - 1):
        have = columns.get((size, m0), [])[:tops]
        sums[size, m0] = have + [_leading_column(size, q, m0) for q in range(len(have) + 1, tops + 1)]
    total = sum(window[-1] for window in windows.values())
    for q, (now, before) in enumerate(zip(sums[n, m0], sums[n - 1, m0]), start=1):
        column = now - before
        total += column if q % 2 else -column
    KEPT["leading"] = (n, windows, sums)
    return total


def _leading_crossover(n: int) -> int:
    """m0 of _leading_total(n): the first m whose fibonacci_higher(m, n - m)
    it takes from the binomial columns rather than a window recurrence."""
    m0 = 1
    while m0 <= n and _by_window(m0, n - m0):
        m0 += 1
    return m0


def _leading_column(n: int, q: int, m0: int) -> int:
    """The sum over m >= m0 of C(n - qm, q - 1) 2^(n + 1 - q(m + 1)), while
    that power is an integer: the terms of a(n - m) with i = q - 1 oversize
    parts, unsigned, where a(t) = sum_i (-1)^i C(t - im, i) 2^(t - i(m+1))."""
    return sum(map(lshift, map(math.comb, range(n - q * m0, q - 2, -q), repeat(q - 1)),
                   range(n + 1 - q * (m0 + 1), -1, -q)))


def count_avoiding(n: int, k: int) -> int:
    """Compositions of n into positive parts none of which equals k.

    Its values follow the recurrence of gf_avoiding's numerator over its
    denominator, c(m) = 2c(m-1) - c(m-k) + c(m-k-1) + [m=1] - [m=k] + [m=k+1]
    with c(m <= 0) = 0. The published form of this recurrence with
    +c(m-k+1) as the final term is wrong (k = 2, m = 4 gives 5 instead of 4),
    which the test suite pins down. Below the crossover of _by_jump,
    series._jump reads c(n - k..n) off gf_avoiding(k); above it, the
    hand-written _avoiding_window runs the recurrence to n. Each route is
    priced as it runs. The jump's price, 3 (k+1)^2 Karatsuba products on n
    bits, was 1.1-2.6 times its time at n = 3000-300000 and k = 2-9, the
    window's 0.6-1.3 times its own, so near both the crossover and the budget
    the window runs where only its price fits. Only the jump keeps its values
    (the window's k may reach n); a later call with the same k that would take
    the jump moves them |n - last| steps, up or down, where those steps'
    additions of n bits number fewer than _jump_cost(k, n).
    """
    if k < 1:
        raise ValueError("the avoided part must be positive")
    if n < 1:
        return 0
    with pricing(what := f"count_avoiding({n}, {k})"):
        k = min(k, n + 1)  # no part of a composition of n exceeds n
        jump = _by_jump(k, n)
        try:
            if jump:
                check_work(what, karatsuba(3 * (k + 1) ** 2, n), n, held=3 * k + 3)
        except ResourceLimitError:
            jump = False
        if not jump:
            check_work(what, n, n, held=min(k, n) + 1)
    if not jump:
        return _avoiding_window(n, k)[-1]
    last_k, last, window = KEPT.pop("avoiding", (0, 0, None))
    if k == last_k and abs(n - last) < _jump_cost(k, n):
        window = _move(window, n - last, *_AVOIDING_STEPS)
    else:
        window = deque(series._jump(series.gf_avoiding(k), n, k + 1), maxlen=k + 1)
    KEPT["avoiding"] = (k, n, window)
    return window[-1]


# The terms after and before a window of a recurrence's last values, the
# second solved for the term that the first reads last (its tap is 1 or -1).
_AVOIDING_STEPS = (lambda w: 2 * w[-1] - w[1] + w[0], lambda w: w[-1] - 2 * w[-2] + w[0])
_FIBONACCI_STEPS = (lambda w: 2 * w[-1] - w[0], lambda w: 2 * w[-2] - w[-1])


def _move(window: deque[int], steps: int, after: Callable, before: Callable) -> deque[int]:
    """Move a full window of a recurrence's last values `steps` terms up,
    or down where steps < 0, in place, and return it."""
    for _ in range(steps):
        window.append(after(window))
    for _ in range(-steps):
        window.appendleft(before(window))
    return window


def _by_jump(k: int, n: int) -> bool:
    """Whether the jump beats _avoiding_window: while _jump_cost(k, n)
    is less than the window's n additions after a setup of about 128 of them
    (measured crossovers, the last k where the jump wins: none at n = 60,
    4 at 200, 8 at 400, 12 at 800, 17 at 2000, 18 at 5000, 21 at 12000,
    24 at 30000; this rule says 0, 4, 8, 11, 14, 18, 22 and 27)."""
    return _jump_cost(k, n) < n - 128


def _jump_cost(k: int, n: int) -> float:
    """The time of count_avoiding's jump in additions of n bits: (k + 1)^2
    Karatsuba products on n bits."""
    return karatsuba((k + 1) ** 2, n)


def _avoiding_window(n: int, k: int) -> deque[int]:
    """c(n-k..n) of count_avoiding's recurrence, c(n) last, for n >= 1 and
    k <= n + 1 (some of the values at m <= 0 absent): n additions of at most
    n bits, holding the last k + 1 values. The route above _by_jump's
    crossover, and the oracle of the jump in verify and the tests."""
    # c(m-k-1), ..., c(m-1); for m <= k every value read from the left end is
    # one of these zeros, so min(k, n) + 1 of them suffice
    window = deque([0] * (min(k, n) + 1), maxlen=k + 1)
    seeded = min(n, k + 1)
    for m in range(1, seeded + 1):
        window.append(2 * window[-1] - window[1] + window[0] + (m == 1) - (m == k) + (m == k + 1))
    for _ in range(seeded + 1, n + 1):
        window.append(2 * window[-1] - window[1] + window[0])
    return window


def count_containing(n: int, k: int) -> int:
    """Compositions of n into positive parts with at least one part equal to
    k: the complement of count_avoiding within all 2^(n-1) compositions."""
    if k < 1:
        raise ValueError("the required part must be positive")
    if n < 1:
        return 0
    avoiding = count_avoiding(n, k)  # guarded, so before the shift
    return (1 << (n - 1)) - avoiding


def fibonacci_higher(m: int, n: int) -> int:
    """Order-m Fibonacci number: compositions of n into parts of size at most
    m, with value 1 at n = 0 (the empty composition). Priced by the route
    _fibonacci_higher takes."""
    if m < 1:
        raise ValueError("the part-size bound must be positive")
    if n < 0:
        return 0
    with pricing(what := f"fibonacci_higher({m}, {n})"):
        if _by_window(m, n):
            check_work(what, 2 * n, n, held=m + 2)
        else:
            _check_binomial_sums(what, n, 2 * (n / (m + 1) + 1))
    return _fibonacci_higher(m, n)


def _by_window(m: int, n: int) -> bool:
    """Whether the window recurrence beats the binomial sums: at m below about
    0.85 n^0.4 (measured crossovers, the first m where the sums win: 5 at
    n = 200, 12 at 800, 15 at 1300, 24 at 3000, 29 at 6000, 44 at 20000;
    this rule says 8, 13, 15, 21, 28 and 45)."""
    return m < 0.85 * n ** 0.4


def _fibonacci_higher(m: int, n: int) -> int:
    """fibonacci_higher, unpriced. Below the crossover of _by_window, the
    window recurrence f(t) = 2f(t-1) - f(t-m-1) from f(0) = 1: n additions
    of at most n bits, holding the last m + 1 values. Above it, by
    inclusion-exclusion, a(n) - a(n-1), where
    a(t) = sum_i (-1)^i C(t-im, i) 2^(t-i(m+1)) is the coefficient of z^t in
    1/(1 - 2z + z^(m+1)): O(n/m) binomials."""
    if _by_window(m, n):
        return _fibonacci_window(m, n)[-1]

    def a(t: int) -> int:
        return sum((-1) ** i * math.comb(t - i * m, i) << (t - i * (m + 1))
                   for i in range(t // (m + 1) + 1)) if t >= 0 else 0

    return a(n) - a(n - 1)


def _fibonacci_window(m: int, n: int) -> deque[int]:
    """f(n-m..n) of the window recurrence of fibonacci_higher(m, .), n >= 0."""
    # f(t-m..t) at t = 0, with f(-m) = 1 standing in so that the recurrence
    # gives f(1) = 1
    window = deque([1] + [0] * (m - 1) + [1], maxlen=m + 1)
    for _ in range(n):
        window.append(2 * window[-1] - window[0])
    return window


def triangle(kind: str, rows: int) -> tuple[tuple[int, ...], ...]:
    """The first ``rows`` rows of the distinct-part partition or composition
    array: the table's own rows, row n holding entries for k = 0 up to
    triangular_root(n), since every later entry is zero. The price counts
    the cells printed up to k = n, and holds the table and one row."""
    if kind not in TRIANGLE_KINDS:
        raise ValueError(f"unknown triangle kind {kind!r}; expected one of {TRIANGLE_KINDS}")
    if rows < 1:
        raise ValueError("need at least one row")
    with pricing(what := f"triangle({kind!r}, {rows})"):
        entries, bits = _distinct_table_size(rows - 1)
        cells = rows * (rows + 1) / 2  # printed, padding included
        check_work(what, entries + cells, bits, held=entries + rows, printed=cells)
    return tuple(_distinct_rows(rows - 1, kind == COMPOSITIONS_DISTINCT)[:rows])
