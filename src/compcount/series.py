"""Exact truncated formal power series and rational generating functions.

Coefficients are signed Python ints. Binary operations truncate to the
shorter operand's order, and truncation order is always explicit at the call
site; there is no implicit global precision.
"""

from collections.abc import Iterable, Sequence
from operator import mul

from . import _SERIES_FAMILIES, exactnum
from .errors import KEPT, Frozen, check_work

Polynomial = tuple[int, ...]


def _poly_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


class TruncatedSeries(Frozen):
    """A power series known exactly through z^order."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[int]):
        coefficients = tuple(coefficients)
        if not coefficients:
            raise ValueError("a truncated series needs at least the z^0 coefficient")
        super().__init__(coefficients)

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls((0,) * (order + 1))

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, n: int) -> int:
        """The coefficient of z^n; beyond the truncation order it is unknown,
        not zero, so asking for it is an error."""
        if n < 0 or n > self.order:
            raise IndexError(f"coefficient {n} is beyond truncation order {self.order}")
        return self.coefficients[n]

    def __getitem__(self, n: int) -> int:
        return self.coefficient(n)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        return TruncatedSeries(
            tuple(self.coefficients[i] + other.coefficients[i] for i in range(order + 1))
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple(-c for c in self.coefficients))

    def __mul__(self, other):
        if isinstance(other, int):
            return TruncatedSeries(tuple(c * other for c in self.coefficients))
        order = min(self.order, other.order)
        out = [0] * (order + 1)
        for i, x in enumerate(self.coefficients[: order + 1]):
            if x:
                for j in range(order + 1 - i):
                    out[i + j] += x * other.coefficients[j]
        return TruncatedSeries(tuple(out))

    def __rmul__(self, other: int) -> "TruncatedSeries":
        return self.__mul__(other)

    def shifted(self, exponent: int) -> "TruncatedSeries":
        """Multiply by z^exponent, keeping the truncation order."""
        if exponent < 0:
            raise ValueError("shift exponent must be nonnegative")
        coeffs = (0,) * exponent + self.coefficients
        return TruncatedSeries(coeffs[: self.order + 1])


class RationalGF(Frozen):
    """A ratio of integer polynomials, stored as ascending coefficient tuples.

    The denominator's constant term must be nonzero (invertible over the
    rationals); expansion additionally requires it to be +1 or -1 so the
    series coefficients stay integers.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Iterable[int], denominator: Iterable[int]):
        numerator, denominator = tuple(numerator), tuple(denominator)
        if not denominator or denominator[0] == 0:
            raise ValueError("denominator needs a nonzero constant term")
        super().__init__(numerator, denominator)

    def __mul__(self, other: "RationalGF") -> "RationalGF":
        return RationalGF(
            _poly_mul(self.numerator, other.numerator),
            _poly_mul(self.denominator, other.denominator),
        )

    def expand(self, order: int) -> TruncatedSeries:
        return series_from_rational(self, order)


def series_from_rational(gf: RationalGF, order: int) -> TruncatedSeries:
    """Expand numerator/denominator to the given order by long division."""
    return TruncatedSeries(tuple(_long_division(gf.numerator, gf.denominator, order, 0)))


def _long_division(num, den, order: int, zero, known: list | None = None) -> list:
    """Coefficients 0..order of num / den by long division (_divide), as a
    new list, or as `known` extended in place where it holds the first of
    them: family_decimals continues the series it keeps that way, and
    divides a contain series by its two denominator factors in turn over
    one list. The steps are additions, products and negations, so they
    run exactly on ints, and on Decimals in an exact context; `zero` is the
    0 of the terms' type."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    coeffs = [] if known is None else known
    start = len(coeffs)
    coeffs += num[start: order + 1]
    coeffs += [zero] * (order + 1 - len(coeffs))
    _divide(coeffs, den, start)
    return coeffs


def _divide(coeffs: list, den, start: int) -> None:
    """Divide coeffs by den in place from index start on, below which they
    already hold the quotient; from start on they hold the dividend.

    With denominator d_0 + d_1 z + ... the quotient satisfies
    c_m = (num_m - sum_{j>=1} d_j c_{m-j}) / d_0, and d_0 = +-1 keeps every
    step in the integers. The sum runs over the nonzero d_j only, so a
    sparse denominator such as 1 - 2z + z^k costs O(order) steps, not
    O(order k); a d_j of 1, -1 or -2 (every composition series has -2 at
    z^1) is applied by adding or subtracting c_{m-j}, the others by a
    product.
    """
    lead = den[0]
    if lead not in (1, -1):
        raise ValueError("denominator constant term must be +1 or -1 for integer expansion")
    taps = [(j, -d) for j, d in enumerate(den) if j and d]
    for m in range(start, len(coeffs)):
        acc = coeffs[m]
        for j, d in taps:
            if j > m:
                break
            c = coeffs[m - j]
            if d == 1:
                acc += c
            elif d == -1:
                acc -= c
            elif d == 2:
                acc += c + c
            else:
                acc += d * c
        coeffs[m] = acc if lead == 1 else -acc


def _jump(gf: RationalGF, n: int, width: int = 1) -> list[int]:
    """Coefficients n - width + 1..n of gf, whose denominator has constant
    term 1, unpriced. With d the denominator's degree, the coefficients from
    s + d on, s = max(0, len(numerator) - d), follow the recurrence whose taps
    are the denominator's tail, negated (Stanley, EC1, Thm 4.1.1): so
    x^(n - width + 1 - s) modulo it, read against the long division's seeds
    c(s + i..s + i + d - 1), gives c(n - width + 1 + i) (Fiduccia 1985). Up to
    the last seed it reads the long division."""
    if gf.denominator[0] != 1 or n < width - 1:
        raise ValueError("the jump needs a denominator with constant term 1 and n >= width - 1")
    d = len(gf.denominator) - 1
    s = max(0, len(gf.numerator) - d)
    last_seed = s + d + width - 2
    if n <= last_seed:
        return _long_division(gf.numerator, gf.denominator, n, 0)[n - width + 1:]
    seeds = _long_division(gf.numerator, gf.denominator, last_seed, 0)[s:]
    power = _recurrence_power([-tap for tap in gf.denominator[1:]], n - width + 1 - s)
    return [sum(map(mul, power, seeds[i:])) for i in range(width)]


def _recurrence_power(taps: Sequence[int], e: int) -> list[int]:
    """x^e mod x^d - sum_j taps[j-1] x^(d-j), d = len(taps), as its at most d
    coefficients from x^0 up, unpriced. The power is found by squaring over
    the bits of e from the top, a set bit shifting the square up by one:
    d(d+1)/2 products a square, then a reduction by the nonzero taps, small
    multiples and additions only."""
    d = len(taps)
    reductions = [(j, tap) for j, tap in enumerate(taps, start=1) if tap]
    power = [1]  # x^f mod the characteristic polynomial, f the bits read so far
    for bit in bin(e)[2:]:
        shift = bit == "1"
        size = len(power)
        square = [0] * (2 * size - 1 + shift)
        for i, a in enumerate(power):
            square[2 * i + shift] += a * a
            twice = a << 1
            for j in range(i + 1, size):
                square[i + j + shift] += twice * power[j]
        for top in range(len(square) - 1, d - 1, -1):
            lead = square[top]
            for j, tap in reductions:
                square[top - j] += tap * lead
        del square[d:]
        power = square
    return power


def _exact_context():
    """A decimal context in which sums and products of integers never round:
    a step that would round, or leave the exponent range, raises instead."""
    import decimal  # only the printed series need it, so start-up skips it

    return decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                           traps=[decimal.Inexact, decimal.Rounded, decimal.Overflow,
                                  decimal.InvalidOperation])


def gf_all_compositions() -> RationalGF:
    """z / (1 - 2z): the coefficient of z^n is 2^(n-1), the number of all
    compositions of n into positive parts."""
    return RationalGF((0, 1), (1, -2))


def _poly(*terms: tuple[int, int]) -> Polynomial:
    """The sum of c z^e over the (e, c) terms, as a coefficient tuple."""
    out = [0] * (max(e for e, _ in terms) + 1)
    for e, c in terms:
        out[e] += c
    return tuple(out)


def _leading(k: int, gap: int) -> RationalGF:
    if k < 1:
        raise ValueError("k must be positive")
    return RationalGF(_poly((k, 1), (k + 1, -1)), _poly((0, 1), (1, -2), (gap, 1)))


def gf_leading_strict(k: int) -> RationalGF:
    """(1-z) z^k / (1 - 2z + z^k): counts compositions whose first part is
    exactly k with all later parts strictly below k."""
    return _leading(k, k)


def gf_leading_weak(k: int) -> RationalGF:
    """(1-z) z^k / (1 - 2z + z^(k+1)): first part exactly k, later parts <= k."""
    return _leading(k, k + 1)


def gf_avoiding(k: int) -> RationalGF:
    """(z - z^k + z^(k+1)) / (1 - 2z + z^k - z^(k+1)): compositions with no
    part equal to k."""
    if k < 1:
        raise ValueError("k must be positive")
    return RationalGF(_poly((1, 1), (k, -1), (k + 1, 1)),
                      _poly((0, 1), (1, -2), (k, 1), (k + 1, -1)))


def gf_containing(k: int) -> RationalGF:
    """z^k (1-z)^2 / ((1-2z)(1 - 2z + z^k - z^(k+1))): compositions with at
    least one part equal to k. It is gf_all_compositions minus gf_avoiding(k)
    over their common denominator (1-2z) D, D = 1 - 2z + z^k - z^(k+1):
    z D - (z - z^k + z^(k+1))(1-2z) = z^k - 2z^(k+1) + z^(k+2)."""
    denominator = _poly_mul((1, -2), gf_avoiding(k).denominator)
    return RationalGF(_poly((k, 1), (k + 1, -2), (k + 2, 1)), denominator)


# The --family flags of the rational composition series, by the names that the
# package defines for the CLI parser. Each coefficient m counts compositions of
# m, so it is below 2^m.
SERIES_FAMILIES = dict(zip(_SERIES_FAMILIES, (gf_leading_strict, gf_leading_weak, gf_avoiding, gf_containing),
                           strict=True))


def _check_expansion(what: str, order: int, terms: int) -> None:
    """Refuse coefficients 0..order of a composition series, each the sum of
    `terms` products, if their steps and their printing exceed the budget.
    Each counts compositions of at most order, so is below 2^order; it is
    priced at order + 1 bits."""
    size = max(order, 0) + 1
    check_work(what, size * max(terms, 1), size, held=size, printed=size)


def _family_k(family: str, k: int, order: int) -> int:
    """The parameter k of the SERIES_FAMILIES series whose coefficients
    0..order are asked for, once they are priced. They are priced before the
    series' dense polynomials are built, at the terms of k = 3, where no two
    exponents collide, so no k has more. Every exponent that depends on k is
    at least k, so a k past order + 1 is taken as order + 1, which changes no
    coefficient up to z^order."""
    terms = sum(1 for d in SERIES_FAMILIES[family](3).denominator[1:] if d)
    _check_expansion(f"the {family} series with k = {k} to order {order}", order, terms)
    return min(k, max(order, 0) + 1)


def family_series(family: str, k: int, order: int) -> TruncatedSeries:
    """Coefficients 0..order of the SERIES_FAMILIES series with parameter k,
    by long division over the nonzero denominator terms."""
    return SERIES_FAMILIES[family](_family_k(family, k, order)).expand(order)


def family_decimals(family: str, k: int, order: int) -> list:
    """family_series's coefficients as decimal.Decimal, priced the same way,
    in a new list: the same long division in _exact_context. An int converts
    to decimal text in time quadratic in its digits, a Decimal in linear
    time, so this is the route of a series that is to be printed.

    The last series asked for (k clamped by _family_k) is kept: a call for
    it reads a prefix, or divides for the terms it lacks, and another series
    starts from no terms and replaces it. A contain series is divided by
    gf_avoiding's denominator D, then by 1 - 2z over the same list, all by
    additions, where their product (see gf_containing) has the products 4,
    -4, -3 and 2. To continue one, the last len(D) - 1 kept terms c_i, which
    D's division reads, are turned back into their quotient by D,
    c_i - 2c_(i-1) from the top down; D then divides the missing terms, and
    1 - 2z the terms from the first one turned back.
    """
    from decimal import Decimal, localcontext

    k = _family_k(family, k, order)
    gf = SERIES_FAMILIES[family](k)
    kept_gf, coeffs = KEPT.pop("decimals", (None, None))
    if gf != kept_gf:
        coeffs = []
    numerator, zero = [*map(Decimal, gf.numerator)], Decimal(0)
    with localcontext(_exact_context()):
        if family != "contain":
            _long_division(numerator, gf.denominator, order, zero, coeffs)
        elif len(coeffs) <= order:
            denominator = gf_avoiding(k).denominator
            low = max(0, len(coeffs) - len(denominator) + 1)
            for i in range(len(coeffs) - 1, max(low, 1) - 1, -1):
                coeffs[i] -= 2 * coeffs[i - 1]
            _long_division(numerator, denominator, order, zero, coeffs)
            _divide(coeffs, (1, -2), low)
    KEPT["decimals"] = (gf, coeffs)
    return coeffs[: order + 1]


def gf_distinct_total(order: int) -> TruncatedSeries:
    """Series for the number of compositions into distinct parts.

    Sums k! z^(k(k+1)/2) / ((1-z)(1-z^2)...(1-z^k)) over every k with
    k(k+1)/2 within the order (larger k touch no retained coefficient),
    Horner-style from the largest k down: add k! z^(k(k+1)/2), then divide
    by 1 - z^k through series_from_rational, O(order) steps per factor.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    factors = exactnum.triangular_root(order)
    _check_expansion(f"the distinct-total series to order {order}", order, factors)
    total = TruncatedSeries.zero(order)
    for k in range(factors, 0, -1):
        coeffs = list(total.coefficients)
        coeffs[k * (k + 1) // 2] += exactnum.factorial(k)
        total = series_from_rational(RationalGF(coeffs, _poly((0, 1), (k, -1))), order)
    return total
