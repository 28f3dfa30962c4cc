"""Command-line frontend for every counter, triangle, series, and graph tool.

All numeric output is decimal strings, so counts of any magnitude survive
serialization unchanged. Each command returns its output lines and its exit
code, and the lines are written with one writelines: a number is converted
to decimal as its line is written, so no output is held whole. Exit codes:
0 success, 1 domain error or a failed verify check, 2 usage error, 3
resource-guard error or out of memory.

Importing this module and building its parser import no counting module.
Each command finds its modules on this import of the package (_package),
which imports each on its first use, so a process loads only those that its
command reads: the graph commands graphcomp and exactnum; series, series and
exactnum; count and triangle, compositions besides; verify all of them.

The parser is one tree: the top parser, a group's (count, graph), and each
command's. A query's argv is parsed by its command's parser alone (_parse);
help, unknown words and leftover arguments go through the whole tree.
"""

import argparse
import sys
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain

from . import COMPOSITIONS_DISTINCT, FAMILIES, PARTITIONS_DISTINCT, VERIFY_SUITES, _SERIES_FAMILIES
from .errors import ResourceLimitError, memo

# This import of the package, whose attributes are its modules: a command reads
# its counters there, at one attribute lookup a module, and not by name in
# sys.modules, which may hold another import of the package.
_package = sys.modules[__package__]

TRIANGLE_KIND_FLAGS = {"pi": PARTITIONS_DISTINCT, "cdistinct": COMPOSITIONS_DISTINCT}
# --name flags: each family's own name, except kminus for complete_minus_edge.
FAMILY_FLAGS = {"kminus" if name == "complete_minus_edge" else name: name for name in FAMILIES}


class UsageError(Exception):
    """Bad flag combination that argparse alone cannot express."""


def _value(count):
    """The handler of a command that prints one value, count(args)."""
    return lambda args, command, params: (_values(command, params, [count(args)], args.format), 0)


def _distinct(args: argparse.Namespace) -> int:
    compositions = _package.compositions
    if args.k is None:
        return compositions.count_compositions_distinct_total(args.n)
    return compositions.count_compositions_distinct(args.n, args.k)


def _leading(args: argparse.Namespace) -> int:
    compositions = _package.compositions
    strict = args.mode == "strict"
    if args.k is None:
        total = compositions.count_leading_strict_total if strict else compositions.leading_weak_total
        return total(args.n)
    return (compositions.count_leading_strict if strict else compositions.count_leading_weak)(args.n, args.k)


def _graph_count(args: argparse.Namespace) -> int:
    graphcomp = _package.graphcomp
    with open(args.file, encoding="utf-8") as handle:
        return graphcomp.reduce_and_count(graphcomp.read_edge_list(handle))


def _series(args: argparse.Namespace, command: str, params: dict) -> tuple[Iterable[str], int]:
    series = _package.series
    if args.family == "distinct-total":
        if args.k is not None:
            raise UsageError("--k does not apply to the distinct-total series")
        return _values(command, params, series.gf_distinct_total(args.order).coefficients, args.format), 0
    if args.k is None:
        raise UsageError(f"--k is required for the {args.family} series")
    return _values(command, params, series.family_decimals(args.family, args.k, args.order), args.format), 0


def _graph_family(args: argparse.Namespace, command: str, params: dict) -> tuple[Iterable[str], int]:
    family = FAMILY_FLAGS[args.name]
    graphcomp = _package.graphcomp
    if not args.emit_graph:
        return _values(command, params, [graphcomp.family_count(family, args.n)], args.format), 0
    if args.format != "plain":
        raise UsageError("--emit-graph only supports the plain format")
    return [graphcomp.format_edge_list(graphcomp.build_family(family, args.n))], 0


def _verify(args: argparse.Namespace, command: str, params: dict) -> tuple[Iterable[str], int]:
    checks = _package.verify.run_suite(args.suite, args.max_n, args.seed)
    return _check_lines(params, checks, args.format), 1 if any(not ok for _, ok, _ in checks) else 0


INT = {"type": int, "required": True}
N, K = ("--n", INT), ("--k", INT)
K_OR_NONE = ("--k", {"type": int, "default": None})

# One entry a command: its words, its help, its flags (each with its
# add_argument options) in the order of its json parameters, and its handler,
# which takes the parsed arguments, the command's words and its parameters and
# returns the output lines and the exit code. A flag's json key is the flag
# without its dashes, its dest the key with "_" for "-"; a switch is no key.
COMMANDS = (
    (("count", "restricted"), "k-part compositions with bounded parts",
     (N, K, ("--min", {"type": int, "default": 0}), ("--max", {"type": int, "default": None})),
     _value(lambda args: _package.compositions.count_restricted(
         args.n, args.k, _package.compositions.PartBounds(args.min, args.max)))),
    (("count", "distinct"), "compositions into distinct nonzero parts", (N, K_OR_NONE), _value(_distinct)),
    (("count", "leading"), "compositions with the largest part first",
     (("--mode", {"choices": ("strict", "weak"), "required": True}), N, K_OR_NONE), _value(_leading)),
    (("count", "avoid"), "compositions with no part equal to k", (K, N),
     _value(lambda args: _package.compositions.count_avoiding(args.n, args.k))),
    (("count", "contain"), "compositions with at least one part k", (K, N),
     _value(lambda args: _package.compositions.count_containing(args.n, args.k))),
    (("triangle",), "rows of a distinct-part counting triangle",
     (("--kind", {"choices": sorted(TRIANGLE_KIND_FLAGS), "required": True}), ("--rows", INT)),
     lambda args, command, params: (_triangle_lines(
         params, _package.compositions.triangle(TRIANGLE_KIND_FLAGS[args.kind], args.rows), args.format), 0)),
    (("series",), "generating-function coefficients",
     (("--family", {"choices": (*_SERIES_FAMILIES, "distinct-total"), "required": True}), K_OR_NONE,
      ("--order", INT)), _series),
    (("graph", "count"), "count a graph from an edge-list file", (("--file", {"required": True}),),
     _value(_graph_count)),
    (("graph", "family"), "count a named graph family member",
     (("--name", {"choices": sorted(FAMILY_FLAGS), "required": True}), N,
      ("--emit-graph", {"action": "store_true",
                        "help": "print the edge list instead of the count (plain format only)"})),
     _graph_family),
    (("verify",), "run the cross-check suites",
     (("--suite", {"choices": VERIFY_SUITES, "default": "all"}), ("--max-n", {"type": int, "default": 10}),
      ("--seed", {"type": int, "default": 0, "help": "seed for the randomized checks"})), _verify),
)
GROUPS = {"count": "composition counters", "graph": "graph composition counting"}


def build_parser() -> argparse.ArgumentParser:
    """The whole tree of commands; its command_parsers maps each command's
    words, a tuple, to the parser of its flags."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("plain", "csv", "json"), default="plain",
                        help="output format (default plain)")

    parser = argparse.ArgumentParser(
        prog="compcount",
        description="Exact counting of integer compositions and graph compositions.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    groups, parser.command_parsers = {}, {}
    for words, help_text, flags, handler in COMMANDS:
        if len(words) == 2 and words[0] not in groups:
            group = commands.add_parser(words[0], help=GROUPS[words[0]])
            groups[words[0]] = group.add_subparsers(dest="subcommand", required=True)
        p = groups.get(words[0], commands).add_parser(words[-1], parents=[common], help=help_text)
        for flag, options in flags:
            p.add_argument(flag, **options)
        keys = tuple(flag[2:] for flag, options in flags if options.get("action") != "store_true")
        p.set_defaults(handler=handler, words=" ".join(words), keys=keys)
        parser.command_parsers[words] = p
    return parser


# The tree of _run with its command parsers, built on a process's first query
# and reused, as parsing leaves it unchanged: the first build takes about 8 ms
# (argparse imports its help formatter's modules), a later one about 2.4 ms.
_parser = memo(1)(build_parser)


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed as the tree parses it, less the tree's command and
    subcommand, which nothing reads. The tree hands a command's parser the
    words after the command's own, so that parser alone parses them, with
    the same help and errors; argv that names no command, or leaves words
    over (which the tree reports as compcount's), goes through the tree."""
    tree = _parser()
    for words in (tuple(argv[:2]), tuple(argv[:1])):
        if words in tree.command_parsers:
            args, rest = tree.command_parsers[words].parse_known_args(argv[len(words):])
            if not rest:
                return args
            break
    return tree.parse_args(argv)


def _dispatch(args: argparse.Namespace) -> tuple[Iterable[str], int]:
    """Run the command: its output lines in args.format, and its exit code."""
    params = {key: getattr(args, key.replace("-", "_")) for key in args.keys}
    return args.handler(args, args.words, params)


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
    err = sys.stderr if err is None else err
    try:
        return _run(argv, sys.stdout if out is None else out, err)
    except MemoryError:  # counting, or writing the lazy lines: admitted, but more than the process may hold
        err.write("resource limit: out of memory, though the work budget admitted the command\n")
        return 3
    finally:
        if limited:
            sys.set_int_max_str_digits(limit)


def _run(argv: list[str], out, err) -> int:
    try:
        args = _parse(argv)
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
    except (ValueError, ArithmeticError, OSError) as exc:  # a GraphParseError is a ValueError
        err.write(f"error: {exc}\n")
        return 1
    out.writelines(lines)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
