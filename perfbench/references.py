"""Independent routes to every answer the benchmark checks.

Nothing here imports compcount: each reference takes a different road to the
number than the program does, so a wrong answer cannot agree with itself.

- distinct-part counts subtract the staircase 1, 2, ..., k and count the
  partitions that remain into at most k parts (the program cuts units);
- leading-part counts sum windowed compositions into bounded parts (the
  program runs a three-term recurrence or a rational GF);
- avoid/contain counts run a first-part recurrence each (the program derives
  containing from avoiding by the complement);
- bounded compositions use inclusion-exclusion (the program runs a DP);
- Bell numbers are Stirling row sums (the program runs the Bell triangle);
- ladders use the Binet form in integer pairs a + b*sqrt(10) (the program
  runs the rung recurrence).

Expected outputs are rendered to the exact bytes the CLI prints, without
``str()`` on integers of 4300 digits or more, so the references work under
Python's default integer-to-string limit.
"""

from collections import deque
from hashlib import sha256
from math import comb, factorial

# Integers below this many bits have fewer than 4300 decimal digits, so
# str() converts them under Python's default limit.
STR_SAFE_BITS = 14_000
STR_DIGIT_LIMIT = 4300


def decimal(x: int) -> str:
    """Decimal digits of x for any size, splitting large values by divmod."""
    if x < 0:
        return "-" + decimal(-x)
    if x.bit_length() < STR_SAFE_BITS:
        return str(x)
    half = int(x.bit_length() * 0.30103) // 2
    high, low = divmod(x, 10**half)
    return decimal(high) + decimal(low).zfill(half)


def digit_count(x: int) -> int:
    return len(decimal(abs(x)))


def bell_numbers(n_max: int) -> list[int]:
    """Bell(0..n_max) as sums of the rows of Stirling numbers of the second kind."""
    bells = [1]
    row = [1]  # S(m, 0..m)
    for m in range(1, n_max + 1):
        row = [0] + [k * (row[k] if k < m else 0) + row[k - 1] for k in range(1, m + 1)]
        bells.append(sum(row))
    return bells


def ladder_count(rungs: int) -> int:
    """((3 + sqrt 10)^r - (3 - sqrt 10)^r) / sqrt 10, in exact integer pairs."""
    def power(a: int, b: int, e: int) -> tuple[int, int]:
        x, y = 1, 0
        while e:
            if e & 1:
                x, y = x * a + 10 * y * b, x * b + y * a
            a, b = a * a + 10 * b * b, 2 * a * b
            e >>= 1
        return x, y

    _, plus = power(3, 1, rungs)
    _, minus = power(3, -1, rungs)
    return plus - minus


def cycle_count(k: int) -> int:
    return (1 << k) - k


def partitions_at_most(k_max: int, n_max: int) -> list[list[int]]:
    """table[k][m]: partitions of m into parts of size at most k (equally,
    into at most k parts), for k = 0..k_max and m = 0..n_max."""
    row = [1] + [0] * n_max
    table = [row[:]]
    for k in range(1, k_max + 1):
        for m in range(k, n_max + 1):
            row[m] += row[m - k]
        table.append(row[:])
    return table


def staircase_k_max(n: int) -> int:
    k = 0
    while (k + 1) * (k + 2) // 2 <= n:
        k += 1
    return k


def distinct_partitions(n: int, k: int, table: list[list[int]]) -> int:
    """Partitions of n into k distinct nonzero parts: removing the staircase
    1, 2, ..., k leaves a partition of n - k(k+1)/2 into at most k parts."""
    if k == 0:
        return 1 if n == 0 else 0
    rest = n - k * (k + 1) // 2
    return table[k][rest] if rest >= 0 else 0


def distinct_total(n: int, table: list[list[int]]) -> int:
    """Compositions of n into distinct parts, over every part count k >= 1."""
    if n <= 0:
        return 0
    return sum(factorial(k) * distinct_partitions(n, k, table)
               for k in range(1, staircase_k_max(n) + 1))


def bounded_parts_compositions(j: int, n_max: int) -> list[int]:
    """h[r]: compositions of r into parts of size 1..j, h[0] = 1, as a
    running window sum over the last part."""
    h = [1] + [0] * n_max
    window = 0  # h[r - j] + ... + h[r - 1]
    for r in range(1, n_max + 1):
        window += h[r - 1]
        if r - 1 - j >= 0:
            window -= h[r - 1 - j]
        h[r] = window
    return h


def leading_counts(k: int, n_max: int, weak: bool) -> list[int]:
    """c[n]: compositions of n whose first part is k and whose later parts
    are below k (strict) or at most k (weak)."""
    h = bounded_parts_compositions(k if weak else k - 1, max(n_max - k, 0))
    return [h[n - k] if n >= k else 0 for n in range(n_max + 1)]


def leading_totals(n_max: int, weak: bool) -> list[int]:
    totals = [0] * (n_max + 1)
    for k in range(1, n_max + 1):
        for n, value in enumerate(leading_counts(k, n_max, weak)):
            totals[n] += value
    return totals


def avoid_contain(k: int, wanted: set[int]) -> dict[int, tuple[int, int]]:
    """{n: (avoid, contain)} for each wanted n: compositions of n into positive
    parts with part k banned or required, both 0 at n = 0. Each runs its own
    first-part recurrence, avoid(n) = sum over first parts j != k of
    avoid(n - j), and contain(n) = all(n - k) + the same sum over contain.
    Only the last k values are held, so memory follows what is wanted."""
    found = {0: (0, 0)} if 0 in wanted else {}
    avoid = deque([1])  # avoid(0) = 1 counts the empty tail
    contain = deque([0])
    avoid_sum, contain_sum = 1, 0  # sums over every earlier n
    for n in range(1, max(wanted) + 1):
        a = avoid_sum - (avoid[-k] if n >= k else 0)
        c = contain_sum - (contain[-k] if n >= k else 0)
        if n == k:
            c += 1
        elif n > k:
            c += 1 << (n - k - 1)
        if n in wanted:
            found[n] = (a, c)
        avoid.append(a)
        contain.append(c)
        if len(avoid) > k:
            avoid.popleft()
            contain.popleft()
        avoid_sum += a
        contain_sum += c
    return found


def bounded_compositions(n: int, k: int, lower: int, upper: int) -> int:
    """k-part compositions of n with parts in [lower, upper], by
    inclusion-exclusion over the parts that exceed the upper bound."""
    if k == 0:
        return 1 if n == 0 else 0
    rest = n - k * lower
    width = upper - lower + 1
    total = 0
    j = 0
    while j <= k and rest - j * width >= 0:
        total += (-1) ** j * comb(k, j) * comb(rest - j * width + k - 1, k - 1)
        j += 1
    return total


def render_value(value: int) -> str:
    return decimal(value) + "\n"


def render_values(values: list[int], csv: bool) -> str:
    if csv:
        return "index,value\n" + "".join(f"{i},{decimal(v)}\n" for i, v in enumerate(values))
    return "".join(decimal(v) + "\n" for v in values)


def render_triangle(rows: list[list[int]], csv: bool) -> str:
    if csv:
        return "index,value\n" + "".join(
            f"{n}:{k},{v}\n" for n, row in enumerate(rows) for k, v in enumerate(row))
    return "".join(" ".join(str(v) for v in row) + "\n" for row in rows)


class Expected:
    """Digest, byte count and size class of one expected output."""

    __slots__ = ("sha256", "nbytes", "over_limit")

    def __init__(self, text: str, over_limit: bool):
        data = text.encode()
        self.sha256 = sha256(data).hexdigest()
        self.nbytes = len(data)
        self.over_limit = over_limit


def _over_limit(values) -> bool:
    return any(v.bit_length() >= STR_SAFE_BITS and digit_count(v) > STR_DIGIT_LIMIT
               for v in values)


def expected_outputs(specs: list[tuple]) -> list[Expected]:
    """Expected stdout for each answer spec (see workloads.py for the forms).

    Shared tables are built once, up to the largest size any spec needs, and
    only digests are kept.
    """
    need_n = [0]
    need_bell = [0]
    lead_n = {False: 0, True: 0}
    avoid_n: dict[int, set[int]] = {}
    for spec in specs:
        kind = spec[0]
        if kind in ("distinct", "distinct-total-series"):
            need_n.append(spec[1])
        elif kind == "triangle":
            need_n.append(spec[2])
        elif kind == "leading-total":
            lead_n[spec[1]] = max(lead_n[spec[1]], spec[2])
        elif kind in ("avoid", "contain"):
            avoid_n.setdefault(spec[2], set()).add(spec[1])
        elif kind == "series" and spec[1] in ("avoid", "contain"):
            avoid_n.setdefault(spec[2], set()).update(range(spec[3] + 1))
        elif kind == "bell":
            need_bell.append(spec[1])
    n_max = max(need_n)
    table = partitions_at_most(staircase_k_max(n_max), n_max)
    bells = bell_numbers(max(need_bell))
    leads = {weak: leading_totals(n, weak) for weak, n in lead_n.items() if n}
    avoids = {k: avoid_contain(k, wanted) for k, wanted in avoid_n.items()}

    out = []
    for spec in specs:
        kind = spec[0]
        if kind == "value":
            values = [spec[1]]
        elif kind == "bell":
            values = [bells[spec[1]]]
        elif kind == "ladder":
            values = [ladder_count(spec[1])]
        elif kind == "distinct":
            n, k = spec[1], spec[2]
            if k is None:
                values = [distinct_total(n, table)]
            else:
                values = [factorial(k) * distinct_partitions(n, k, table) if 0 <= k <= n else 0]
        elif kind == "leading-total":
            values = [leads[spec[1]][spec[2]]]
        elif kind in ("avoid", "contain"):
            values = [avoids[spec[2]][spec[1]][kind == "contain"]]
        elif kind == "restricted":
            values = [bounded_compositions(*spec[1:])]
        elif kind == "triangle":
            _, ordered, rows, csv = spec
            triangle = [[(factorial(k) if ordered else 1) * distinct_partitions(n, k, table)
                         for k in range(n + 1)] for n in range(rows)]
            out.append(Expected(render_triangle(triangle, csv), False))
            continue
        elif kind == "distinct-total-series":
            _, order, csv = spec
            series = [distinct_total(n, table) for n in range(order + 1)]
            out.append(Expected(render_values(series, csv), _over_limit(series)))
            continue
        elif kind == "series":
            _, family, k, order, csv = spec
            if family in ("avoid", "contain"):
                series = [avoids[k][n][family == "contain"] for n in range(order + 1)]
            else:
                series = leading_counts(k, order, weak=family == "fweak")
            out.append(Expected(render_values(series, csv), _over_limit(series)))
            continue
        else:
            raise ValueError(f"unknown answer spec {spec!r}")
        out.append(Expected(render_value(values[0]), _over_limit(values)))
    return out
