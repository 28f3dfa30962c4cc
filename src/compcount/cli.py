"""Command-line frontend for every counter, triangle, series, and graph tool.

All numeric output is decimal strings, so counts of any magnitude survive
serialization unchanged. Each command returns its output lines and its exit
code, and the lines are written with one writelines: a number is converted
to decimal as its line is written, so no output is held whole. Exit codes:
0 success, 1 domain error or a failed verify check, 2 usage error, 3
resource-guard error.
"""

import argparse
import sys
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain

from . import VERIFY_SUITES, compositions, graphcomp, series
from .compositions import PartBounds
from .errors import ResourceLimitError
from .graphcomp import GraphParseError

TRIANGLE_KIND_FLAGS = {
    "pi": compositions.PARTITIONS_DISTINCT,
    "cdistinct": compositions.COMPOSITIONS_DISTINCT,
}
# --name flags: each family's own name, except kminus for complete_minus_edge.
FAMILY_FLAGS = {"kminus" if name == "complete_minus_edge" else name: name
                for name in graphcomp.FAMILIES}


class UsageError(Exception):
    """Bad flag combination that argparse alone cannot express."""


# The parser of _run, built on its first call and reused: parsing leaves it
# unchanged, and building it costs about 2 ms a query.
_parser: argparse.ArgumentParser | None = None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("plain", "csv", "json"), default="plain",
                        help="output format (default plain)")

    parser = argparse.ArgumentParser(
        prog="compcount",
        description="Exact counting of integer compositions and graph compositions.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    count = commands.add_parser("count", help="composition counters")
    counters = count.add_subparsers(dest="subcommand", required=True)

    p = counters.add_parser("restricted", parents=[common],
                            help="k-part compositions with bounded parts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--min", type=int, default=0, dest="min_part")
    p.add_argument("--max", type=int, default=None, dest="max_part")

    p = counters.add_parser("distinct", parents=[common],
                            help="compositions into distinct nonzero parts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)

    p = counters.add_parser("leading", parents=[common],
                            help="compositions with the largest part first")
    p.add_argument("--mode", choices=("strict", "weak"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)

    for name, help_text in (("avoid", "compositions with no part equal to k"),
                            ("contain", "compositions with at least one part k")):
        p = counters.add_parser(name, parents=[common], help=help_text)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--n", type=int, required=True)

    p = commands.add_parser("triangle", parents=[common],
                            help="rows of a distinct-part counting triangle")
    p.add_argument("--kind", choices=sorted(TRIANGLE_KIND_FLAGS), required=True)
    p.add_argument("--rows", type=int, required=True)

    p = commands.add_parser("series", parents=[common],
                            help="generating-function coefficients")
    p.add_argument("--family", choices=(*series.SERIES_FAMILIES, "distinct-total"), required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--order", type=int, required=True)

    graph = commands.add_parser("graph", help="graph composition counting")
    graphs = graph.add_subparsers(dest="subcommand", required=True)

    p = graphs.add_parser("count", parents=[common], help="count a graph from an edge-list file")
    p.add_argument("--file", required=True)

    p = graphs.add_parser("family", parents=[common], help="count a named graph family member")
    p.add_argument("--name", choices=sorted(FAMILY_FLAGS), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--emit-graph", action="store_true", dest="emit_graph",
                   help="print the edge list instead of the count (plain format only)")

    p = commands.add_parser("verify", parents=[common], help="run the cross-check suites")
    p.add_argument("--suite", choices=VERIFY_SUITES, default="all")
    p.add_argument("--max-n", type=int, default=10, dest="max_n")
    p.add_argument("--seed", type=int, default=0, help="seed for the randomized checks")

    return parser


def _dispatch(args: argparse.Namespace) -> tuple[Iterable[str], int]:
    """Run the command: its output lines in args.format, and its exit code."""
    command = args.command
    sub = getattr(args, "subcommand", None)
    fmt = args.format

    if command == "count" and sub == "restricted":
        bounds = PartBounds(args.min_part, args.max_part)
        value = compositions.count_restricted(args.n, args.k, bounds)
        params = {"n": args.n, "k": args.k, "min": args.min_part, "max": args.max_part}
        return _values("count restricted", params, [value], fmt), 0

    if command == "count" and sub == "distinct":
        if args.k is None:
            value = compositions.count_compositions_distinct_total(args.n)
        else:
            value = compositions.count_compositions_distinct(args.n, args.k)
        return _values("count distinct", {"n": args.n, "k": args.k}, [value], fmt), 0

    if command == "count" and sub == "leading":
        strict = args.mode == "strict"
        if args.k is None:
            total = compositions.count_leading_strict_total if strict else compositions.leading_weak_total
            value = total(args.n)
        else:
            per_k = compositions.count_leading_strict if strict else compositions.count_leading_weak
            value = per_k(args.n, args.k)
        return _values("count leading", {"mode": args.mode, "n": args.n, "k": args.k}, [value], fmt), 0

    if command == "count" and sub == "avoid":
        value = compositions.count_avoiding(args.n, args.k)
        return _values("count avoid", {"k": args.k, "n": args.n}, [value], fmt), 0

    if command == "count" and sub == "contain":
        value = compositions.count_containing(args.n, args.k)
        return _values("count contain", {"k": args.k, "n": args.n}, [value], fmt), 0

    if command == "triangle":
        rows = compositions.triangle(TRIANGLE_KIND_FLAGS[args.kind], args.rows)
        return _triangle_lines({"kind": args.kind, "rows": args.rows}, rows, fmt), 0

    if command == "series":
        if args.family == "distinct-total":
            if args.k is not None:
                raise UsageError("--k does not apply to the distinct-total series")
            coefficients = series.gf_distinct_total(args.order).coefficients
        else:
            if args.k is None:
                raise UsageError(f"--k is required for the {args.family} series")
            coefficients = series.family_decimals(args.family, args.k, args.order)
        params = {"family": args.family, "k": args.k, "order": args.order}
        return _values("series", params, coefficients, fmt), 0

    if command == "graph" and sub == "count":
        with open(args.file, encoding="utf-8") as handle:
            graph = graphcomp.read_edge_list(handle)
        value = graphcomp.reduce_and_count(graph)
        return _values("graph count", {"file": args.file}, [value], fmt), 0

    if command == "graph" and sub == "family":
        family = FAMILY_FLAGS[args.name]
        params = {"name": args.name, "n": args.n}
        if args.emit_graph:
            if fmt != "plain":
                raise UsageError("--emit-graph only supports the plain format")
            return [graphcomp.format_edge_list(graphcomp.build_family(family, args.n))], 0
        return _values("graph family", params, [graphcomp.family_count(family, args.n)], fmt), 0

    if command == "verify":
        from . import verify  # only this command needs it, so start-up skips it

        checks = verify.run_suite(args.suite, args.max_n, args.seed)
        params = {"suite": args.suite, "max-n": args.max_n, "seed": args.seed}
        return _check_lines(params, checks, fmt), 1 if any(not ok for _, ok, _ in checks) else 0

    raise UsageError(f"unhandled command {command!r}")


def _json_around_values(command: str, parameters: dict) -> tuple[str, str]:
    """The text of json.dump(record, out, indent=2) plus a newline for a value
    record, split around the cells of its values: the layout comes from a
    dump with one null value in their place."""
    import json  # json output alone needs it, so start-up skips it
    layout = {"command": command, "parameters": parameters, "values": [None]}
    before, after = json.dumps(layout, indent=2).rsplit("null", 1)
    return before.rstrip(), after + "\n"


def _values(command: str, parameters: dict, values: Sequence, fmt: str) -> Iterator[str]:
    """A value command's output in the format, a line (json: a cell) at a
    time; values[n] is the value at index n, and at least one is given. The
    values are ints, or integral decimal.Decimals (the rational series),
    which print alike. Each number is converted to decimal by str (a
    Decimal's format is slower) as it is written, so the output is never
    held as strings."""
    if fmt == "plain":
        return (f"{value!s}\n" for value in values)
    if fmt == "csv":
        # indices and decimal values hold no character that csv would quote
        return chain(["index,value\n"], (f"{n},{value!s}\n" for n, value in enumerate(values)))
    before, after = _json_around_values(command, parameters)
    cells = (f'{"," if n else ""}\n    [\n      "{n}",\n      "{value!s}"\n    ]'
             for n, value in enumerate(values))
    return chain([before], cells, [after])


def _check_lines(parameters: dict, checks: list[tuple[str, bool, str]], fmt: str) -> list[str]:
    """verify's output in the format: a line a check, under a header."""
    if fmt == "csv":
        # check names hold no character that csv would quote
        return ["name,ok\n", *(f"{name},{'ok' if ok else 'FAIL'}\n" for name, ok, _ in checks)]
    passed = sum(1 for _, ok, _ in checks if ok)
    if fmt == "json":
        import json  # json output alone needs it, so start-up skips it
        record = {
            "command": "verify",
            "parameters": parameters,
            "checks": [{"name": name, "ok": ok, "detail": detail} for name, ok, detail in checks],
            "passed": passed,
            "failed": len(checks) - passed,
        }
        return [json.dumps(record, indent=2), "\n"]
    lines = [f"# verify suite={parameters['suite']} max-n={parameters['max-n']} seed={parameters['seed']}\n"]
    for name, ok, detail in checks:
        if ok:
            note = f" ({detail})" if detail else ""
            lines.append(f"ok   {name}{note}\n")
        else:
            lines.append(f"FAIL {name}: {detail}\n")
    lines.append(f"passed {passed}/{len(checks)} checks\n")
    return lines


def _triangle_lines(parameters: dict, rows: tuple[tuple[int, ...], ...], fmt: str):
    """The triangle's output in the format, one string a row (csv and json
    add their header and trailer). rows[n] stops at k = triangular_root(n),
    as compositions.triangle gives it, so only those entries are converted;
    the zero tail out to k = n is cut from strings built once."""
    if fmt == "plain":
        zeros = " 0" * len(rows)
        for n, head in enumerate(rows):
            yield " ".join(map(str, head)) + zeros[:2 * (n + 1 - len(head))] + "\n"
        return
    if fmt == "csv":
        yield "index,value\n"
        zero_cells = [f"{k},0\n" for k in range(len(rows))]
        for n, head in enumerate(rows):
            p = f"{n}:"  # before each cell: "n:k,value"
            yield p + p.join([f"{k},{v}\n" for k, v in enumerate(head)] + zero_cells[len(head):n + 1])
        return
    before, after = _json_around_values("triangle", parameters)
    yield before
    zero_cells = [f'{k}",\n      "0"\n    ]' for k in range(len(rows))]
    for n, head in enumerate(rows):
        p = f'{"," if n else ""}\n    [\n      "{n}:'  # row 0 holds one cell, the first
        yield p + p.join([f'{k}",\n      "{v}"\n    ]' for k, v in enumerate(head)]
                         + zero_cells[len(head):n + 1])
    yield after


def run(argv: list[str], out=None, err=None) -> int:
    """Parse argv, execute, and return the exit code (no sys.exit).

    Python caps int-to-decimal conversion at 4300 digits by default; the cap
    is lifted while the command runs, so answers of any length print, and
    restored afterwards.
    """
    limited = hasattr(sys, "set_int_max_str_digits")  # absent before 3.10.7
    if limited:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv, sys.stdout if out is None else out, sys.stderr if err is None else err)
    finally:
        if limited:
            sys.set_int_max_str_digits(limit)


def _run(argv: list[str], out, err) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        lines, code = _dispatch(args)
    except UsageError as exc:
        err.write(f"usage error: {exc}\n")
        return 2
    except ResourceLimitError as exc:
        err.write(f"resource limit: {exc}\n")
        return 3
    except OverflowError as exc:  # a size past a float's range, in a cost estimate
        err.write(f"resource limit: a size too large to price ({exc})\n")
        return 3
    except (GraphParseError, ValueError, ArithmeticError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return 1
    out.writelines(lines)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
