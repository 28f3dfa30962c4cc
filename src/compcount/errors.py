"""Exceptions shared across the package, the work guard of the counters, the
store of values kept between calls, and the frozen base of the value classes.

Each counter calls check_work before its loops start, with an estimate from
its arguments alone, never from what KEPT or a memo holds (a graph block
found in the block memo runs no counter, so it is not priced):

- the distinct-part table to row n (compositions._distinct_rows): about
  0.95 n^1.5 entries of at most log2(k! e^(pi sqrt(n/3))) bits for the
  largest k; triangle adds its cells out to k = n, zero tails included,
  each printed, and one row held;
- the leading totals: 2(n/k + 1) binomials of n bits for each k at Karatsuba
  cost, fit to the per-first-part sums that their column sums replaced, and
  5-31 times the column sums' time at n = 800-9029; fibonacci_higher(m, n),
  and the per-k leading counts through it: 2n additions of n bits below
  m < 0.85 n^0.4, else 2(n/(m + 1) + 1) of those binomials;
- count_avoiding, and count_containing through it, by the route it takes:
  the jump (series._jump) below (k + 1)^2 (n/64 + 1)^0.585 < n - 128,
  3(k + 1)^2 Karatsuba products of n bits, 3k + 3 of them held; the window
  above it, and below it where only the window's price is within the
  budget, n additions of at most n bits, min(k, n) + 1 of them held;
- count_restricted: t + 1 terms of its inclusion-exclusion sum, each
  min(k - 1, r) + 2 products for its binomials (math.comb(N, K) takes about
  min(K, N - K)), on numbers of t bits more than the count without an upper
  bound; its oracle _count_by_dp: k(n+1) additions per part value in range;
- the composition series (series.gf_distinct_total, series.family_series,
  and series.family_decimals, the same long division over Decimals): order + 1
  coefficients of at most order bits, each one product per factor or
  denominator term, all printed. A Decimal prints in time linear in its
  digits, so the printing term (2 w^2) over-prices family_decimals, whose
  last admitted orders (about 15,900) print in 0.21-0.23 s as a command,
  35-38 times under the price, with nothing kept;
- exactnum.bell_numbers and exactnum._stirling_row, behind bell, stirling1
  and stirling2: n(n+1)/2 additions of n log2(n+1) bits over the triangle rows;
- the listings, from the number of items each lists, before the first:
  compositions.enumerate_compositions its count_restricted(n, k, bounds)
  k-tuples, k + 10 operations each, all held at 8k + 64 bytes;
  graphcomp.enumerate_graph_compositions Bell(n) set partitions, 9n
  operations and n numbers held each, first at the lower bound 2^(n-1) so
  that a refused listing finds no Bell number; the Stirling sums of exactnum
  C(n - 1, k - 1) compositions, 64 + b/32 operations each on numbers of
  b = log2(n!) bits; its binomial sum p(n, k) partitions, 7k + 40
  operations each, after the float table of n - k + 1 cells that counts
  them at k additions a cell;
- graphcomp.family_count: one shift of n bits for path, tree and cycle;
  graphcomp.ladder_binet: 16 Karatsuba products of about 2.63n bits;
  graphcomp.build_family: 40 operations and 7 held numbers per edge;
- the graph block counters, each by one charge function of graphcomp that
  gives what check_work reads, (what, operations, bits, held); no counter
  body prices itself. _subset_charge, the replaced per-cube kernel's price
  kept as an upper bound on the ranked table: 1.5 operations a direct step,
  3^m for each cube of m <= 7 vertices above a lowest vertex, and 2 a
  transform step, m 2^m for each larger cube, on n fields of about
  2n + n log2 n bits, 2^(n+1) numbers held.
  _frontier_charge: 585 word steps and one addition of min(edges,
  n log2(n + 1)) bits a step of the state bound (_frontier_price), the
  states held; before the order, on a block, 9n - 18 steps of the least
  widths 0, 1, 2, 2, ..., and on any graph one step a vertex.
  _reductions_charge: 6 operations on numbers of those bits for each of at
  most n + edges reductions, 3 numbers held. None prices a decimal
  conversion; the public DPs charge themselves before any list of n entries.

A counter also prices one decimal conversion of each number it returns, as
its caller usually prints it. graphcomp.reduce_and_count prices its block
split, 4 numbers held and 20 operations per vertex and edge (as
graphcomp.is_connected prices its search), and hands each block to
graphcomp._count_block, which looks it up in the block memo and, on a miss,
finds each counter's charge once and runs the series-parallel reductions
where they are priced lowest, else (or where they stall) the DP of the lower
price, and refuses the block where the charge of the counter it picks is
over the budget, charging the route it runs once: a memo hit does no work
and is not priced again, and a refused block is not kept. On n vertices of which
some are universal, the subset DP also prices its Bell sum by
exactnum.bell_numbers(n), whose numbers it reads. graphcomp.read_edge_list prices an
edge-list file at 36 bytes held a character, and reads no further than the
first character over the budget. verify.run_suite prices the checks that
grow with max_n: 0.9 (4 max_n)^3 operations for the leading totals and the
bounded-part DP, 7 (4 max_n)^2 ln(4 max_n) for the per-first-part sums that
check the leading totals' column sums, about 4e4 (max_n/16 + 1)^0.585 for
the avoid/contain jump check, 20 order^2 + 1000 order for the series. A size
past the range of a float (about 10^308) is refused where its estimate
overflows.

Every value kept from one call to the next is an entry of KEPT, taken out
(pop) while a call works and put back when done, or grown in place
(setdefault) a whole row at a time, so that an interrupted call leaves
nothing half-changed. Each is bounded by the largest call the budget admits:

- "avoiding": count_avoiding's k and c(n - k..n) at the last n that took
  the jump, at most 1.4 MB (13 numbers of 826,000 bits);
- "leading": the leading totals' windows at the last n, one for each first
  part below the crossover m0, and their column sums at n and n - 1, about
  2n/m0 numbers, at most 1.1 MB (n = 9029);
- "decimals": family_decimals's last series (k clamped) and the most Decimal
  coefficients found for it, at most 18 MB (contain at order 15,896);
- "partitions-distinct", "compositions-distinct": the distinct-part tables'
  rows up to the largest n asked, about 0.95 n^1.5 entries;
- "stirling1", "stirling2": the last Stirling row built of each kind, and n;
- "bell": Bell(0..n) and row n of the Bell triangle, for the largest n
  asked, in one entry so that the two stay in step;
- "blocks": graphcomp._count_block's block memo, at most 4096 counts of
  blocks of at most 64 vertices, about 3 MB.

Memos are lru_caches registered by memo(): exactnum.bell (16 entries),
graphcomp._successors (4096, 3.0-3.6 MB), graphcomp._field_bits (64 ints),
graphcomp._state_bounds and cli._parser (1 each); forget() empties them and
KEPT, as in a new process.
"""

from contextlib import contextmanager
from functools import lru_cache

# Work is counted in word steps: a big-integer operation costs OP_STEPS plus
# one per 64-bit word of its operands, and printing a number of w words about
# 2 w^2 (decimal conversion is quadratic). A step takes about 4 ns on a 2-vCPU
# x86-64 guest, so the budget is about 8 s; memory counts the numbers held at
# once at 40 bytes plus 8 per word each.
OP_STEPS = 25
WORK_BUDGET = 2e9
MEMORY_BUDGET = 1e9


KEPT: dict = {}
_MEMOS: list = []  # filled as their modules are imported


def memo(maxsize: int):
    """functools.lru_cache(maxsize), registered so that forget() clears it."""
    def register(function):
        _MEMOS.append(lru_cache(maxsize)(function))
        return _MEMOS[-1]
    return register


def forget() -> None:
    """Drop every value kept between calls: the entries of KEPT and every memo."""
    KEPT.clear()
    for cached in _MEMOS:
        cached.cache_clear()


class Frozen:
    """A value of the fields that its class names in __slots__, set once by
    __init__ from its arguments in that order. Two values are equal when
    they are of the same type and their fields are; a value hashes and
    prints as its fields, and pickles and copies as its class called on
    them. A plain class, not a dataclass: importing dataclasses at start-up
    also imports inspect, ast and dis, which no command uses."""

    __slots__ = ()

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class ResourceLimitError(RuntimeError):
    """Raised when an exact computation would exceed an explicit size guard.

    The message says which guard fired and, where one exists, what cheaper
    route to try instead.
    """


def word_steps(operations: float, bits: float) -> float:
    """The word steps of `operations` big-integer operations on numbers of at
    most `bits` bits."""
    return operations * (OP_STEPS + bits / 64 + 1)


def karatsuba(count: float, bits: float) -> float:
    """The operations that check_work reads for `count` Karatsuba products
    of numbers of `bits` bits: w^0.585 word additions each, for w words."""
    return count * (bits / 64 + 1) ** 0.585


@contextmanager
def pricing(what: str):
    """Refuse `what` where its cost estimate overflows a float (past 10^308)."""
    try:
        yield
    except OverflowError:
        raise ResourceLimitError(f"{what}: a size too large to price") from None


def check_work(what: str, operations: float, bits: float, held: float, printed: float = 1) -> None:
    """Refuse a computation of `operations` big-integer operations on numbers
    of at most `bits` bits that holds `held` of them at once and prints
    `printed`, unless its estimated steps and bytes are within the budgets."""
    with pricing(what):
        words = bits / 64 + 1
        # nothing printed adds no term: on a count of infinite bits, 0 * inf is nan
        steps = word_steps(operations, bits) + (printed and printed * (OP_STEPS + 2 * words * words))
        memory = held * (40 + 8 * words)
    if not (steps <= WORK_BUDGET and memory <= MEMORY_BUDGET):  # a nan estimate is refused too
        raise ResourceLimitError(
            f"{what} needs an estimated {steps:.3g} word steps and {memory / 1e6:.3g} MB, "
            f"over the budget of {WORK_BUDGET:.3g} steps and {MEMORY_BUDGET / 1e6:.3g} MB"
        )
