"""End-to-end tests of the command-line interface."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
from itertools import chain, combinations
from pathlib import Path
from random import Random

import pytest
from hypothesis import HealthCheck, event, example, given, settings, strategies as st

from compcount import (VERIFY_SUITES, ResourceLimitError, cli, compositions, errors, exactnum, graphcomp,
                       series, verify)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# --- plain output -------------------------------------------------------------

def test_count_distinct_total():
    code, out, _ = run_cli(["count", "distinct", "--n", "6"])
    assert code == 0
    assert out == "11\n"


def test_graph_family_ladder():
    code, out, _ = run_cli(["graph", "family", "--name", "ladder", "--n", "2"])
    assert code == 0
    assert out == "12\n"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-to-str digit limit")
def test_answers_print_past_the_int_string_limit():
    limit = sys.get_int_max_str_digits()
    code, out, _ = run_cli(["graph", "family", "--name", "ladder", "--n", "8000"])
    assert sys.get_int_max_str_digits() == limit
    assert code == 0
    sys.set_int_max_str_digits(0)
    try:
        expected = str(graphcomp.ladder_binet(8000))
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(expected) > 4300
    assert out == expected + "\n"


def test_triangle_single_row_plain():
    code, out, _ = run_cli(["triangle", "--kind", "pi", "--rows", "1", "--format", "plain"])
    assert code == 0
    assert out == "1\n"


def test_triangle_rows_plain():
    code, out, _ = run_cli(["triangle", "--kind", "cdistinct", "--rows", "4"])
    assert code == 0
    assert out == "1\n0 1\n0 1 0\n0 1 2 0\n"


def test_count_restricted_with_bounds():
    code, out, _ = run_cli(
        ["count", "restricted", "--n", "9", "--k", "3", "--min", "1", "--max", "4"]
    )
    assert code == 0
    expected = compositions.count_restricted(9, 3, compositions.PartBounds(1, 4))
    assert out == f"{expected}\n"


def test_count_leading_modes():
    code, out, _ = run_cli(["count", "leading", "--mode", "strict", "--n", "5", "--k", "3"])
    assert (code, out) == (0, "2\n")
    code, out, _ = run_cli(["count", "leading", "--mode", "weak", "--n", "3"])
    assert (code, out) == (0, "3\n")


def test_count_avoid_and_contain():
    code, out, _ = run_cli(["count", "avoid", "--k", "2", "--n", "4"])
    assert (code, out) == (0, "4\n")
    code, out, _ = run_cli(["count", "contain", "--k", "2", "--n", "3"])
    assert (code, out) == (0, "2\n")
    # a part past n, even past 2^63, is avoided by every composition
    for command, want in (("avoid", "16\n"), ("contain", "0\n")):
        assert run_cli(["count", command, "--k", "10000000000000000000", "--n", "5"]) == (0, want, "")


# --- machine formats ------------------------------------------------------------

def test_json_round_trip():
    code, out, _ = run_cli(["count", "restricted", "--n", "8", "--k", "6", "--format", "json"])
    assert code == 0
    record = json.loads(out)
    assert record["command"] == "count restricted"
    assert record["parameters"]["n"] == 8
    assert record["values"] == [["0", "1287"]]
    assert int(record["values"][0][1]) == compositions.count_restricted(8, 6)


def test_json_series_round_trip():
    code, out, _ = run_cli(["series", "--family", "fweak", "--k", "2", "--order", "12", "--format", "json"])
    assert code == 0
    record = json.loads(out)
    for index, value in record["values"]:
        assert int(value) == compositions.count_leading_weak(int(index), 2)


def test_csv_round_trip():
    code, out, _ = run_cli(["series", "--family", "avoid", "--k", "3", "--order", "10", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["index", "value"]
    for index, value in rows[1:]:
        assert int(value) == compositions.count_avoiding(int(index), 3)


def test_csv_triangle_round_trip():
    code, out, _ = run_cli(["triangle", "--kind", "pi", "--rows", "8", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["index", "value"]
    for index, value in rows[1:]:
        n, k = map(int, index.split(":"))
        assert int(value) == compositions.count_partitions_distinct(n, k)


def test_big_counts_survive_json():
    code, out, _ = run_cli(["graph", "family", "--name", "path", "--n", "400", "--format", "json"])
    assert code == 0
    record = json.loads(out)
    assert int(record["values"][0][1]) == 1 << 399


def test_output_is_deterministic():
    argv = ["verify", "--suite", "graphs", "--max-n", "5", "--seed", "17"]
    first = run_cli(argv)
    second = run_cli(argv)
    assert first == second


# --- graph files ------------------------------------------------------------------

def test_graph_count_from_file(tmp_path):
    target = tmp_path / "ladder3.txt"
    target.write_text(graphcomp.format_edge_list(graphcomp.build_family("ladder", 3)))
    code, out, _ = run_cli(["graph", "count", "--file", str(target)])
    assert (code, out) == (0, "74\n")


def test_graph_count_missing_file():
    code, _, err = run_cli(["graph", "count", "--file", "/nonexistent/graph.txt"])
    assert code == 1
    assert err


def test_graph_count_parse_error(tmp_path):
    target = tmp_path / "bad.txt"
    target.write_text("2\n0 0\n")
    code, _, err = run_cli(["graph", "count", "--file", str(target)])
    assert code == 1
    assert "line 2" in err


def test_graph_count_rejects_non_ascii_digits(tmp_path):
    target = tmp_path / "superscript.txt"
    target.write_text("3\n0 \u00b2\n", encoding="utf-8")
    code, out, err = run_cli(["graph", "count", "--file", str(target)])
    assert (code, out) == (1, "")
    assert "line 2" in err


def test_emit_graph_round_trips(tmp_path):
    code, out, _ = run_cli(["graph", "family", "--name", "cycle", "--n", "5", "--emit-graph"])
    assert code == 0
    assert graphcomp.parse_edge_list(out) == graphcomp.build_family("cycle", 5)
    target = tmp_path / "cycle5.txt"
    target.write_text(out)
    code, out, _ = run_cli(["graph", "count", "--file", str(target)])
    assert (code, out) == (0, "27\n")


def test_emit_graph_requires_plain():
    code, _, err = run_cli(
        ["graph", "family", "--name", "cycle", "--n", "5", "--emit-graph", "--format", "json"]
    )
    assert code == 2
    assert "plain" in err


# --- exit codes ---------------------------------------------------------------------

def test_domain_error_exit_code():
    code, _, err = run_cli(["graph", "family", "--name", "cycle", "--n", "2"])
    assert code == 1
    assert "cycle" in err
    # a negative size is a domain error, not an oversized one
    code, _, err = run_cli(["triangle", "--kind", "pi", "--rows", "-100000"])
    assert (code, err) == (1, "error: need at least one row\n")


def test_usage_error_exit_code():
    code, _, _ = run_cli(["count", "restricted", "--n", "3", "--badflag"])
    assert code == 2
    code, _, _ = run_cli(["series", "--family", "fstrict", "--order", "5"])
    assert code == 2
    code, _, _ = run_cli(["series", "--family", "distinct-total", "--k", "2", "--order", "5"])
    assert code == 2


def complete_minus_cycle(n):
    """K_n minus the Hamiltonian cycle 0-1-...-(n-1)-0: no vertex is universal."""
    return graphcomp.LabeledGraph(n, {(u, v) for u in range(n) for v in range(u + 2, n)
                                      if (u, v) != (0, n - 1)})


def complete_minus_matching(n, t):
    """K_n minus the t edges {0, 1}, {2, 3}, ...: the other n - 2t vertices are universal."""
    return graphcomp.LabeledGraph(n, set(combinations(range(n), 2)) - {(2 * i, 2 * i + 1) for i in range(t)})


def test_resource_error_exit_code(tmp_path):
    target = tmp_path / "refused.txt"
    for graph, h in ((complete_minus_cycle(26), 26), (complete_minus_matching(40, 10), 20)):
        target.write_text(graphcomp.format_edge_list(graph))
        code, _, err = run_cli(["graph", "count", "--file", str(target)])
        assert code == 3
        assert f"the subset DP over 2^{h} vertex sets needs" in err


def test_complete_graphs_count_through_their_universal_vertices(tmp_path):
    # K_30 minus a 5-edge matching: the alternating Bell sum over its 10 vertices that are not universal
    matching = sum((-1) ** j * math.comb(5, j) * exactnum.bell(30 - 2 * j) for j in range(6))
    target = tmp_path / "universal.txt"
    for graph, expected in ((graphcomp.build_family("complete", 26), exactnum.bell(26)),
                            (complete_minus_matching(30, 5), matching)):
        target.write_text(graphcomp.format_edge_list(graph))
        assert run_cli(["graph", "count", "--file", str(target)]) == (0, f"{expected}\n", "")


def test_cap_flag_lowers_the_guard(tmp_path):
    target = tmp_path / "k10-c10.txt"
    target.write_text(graphcomp.format_edge_list(complete_minus_cycle(10)))
    code, out, _ = run_cli(["graph", "count", "--file", str(target)])
    assert (code, out) == (0, "75128\n")


def test_long_cycle_is_counted_past_the_vertex_cap(tmp_path):
    target = tmp_path / "c30.txt"
    target.write_text(graphcomp.format_edge_list(graphcomp.build_family("cycle", 30)))
    code, out, _ = run_cli(["graph", "count", "--file", str(target)])
    assert (code, out) == (0, f"{(1 << 30) - 30}\n")


def test_help_exits_zero():
    code, _, _ = run_cli(["--help"])
    assert code == 0


def test_a_second_run_in_one_process_behaves_like_the_first(capsys):
    queries = (["count", "distinct", "--n", "6", "--format", "csv"],
               ["count", "restricted", "--n", "3", "--badflag"],
               ["graph", "family", "--name", "ladder", "--n", "2"],
               ["--help"],
               ["series", "--family", "fstrict", "--order", "5"],
               ["count", "leading", "--mode", "weak", "--n", "5", "--format", "json"])
    first = [run_cli(argv) for argv in queries]
    assert [code for code, _, _ in first] == [0, 2, 0, 0, 2, 0]
    parser = cli._parser()
    capsys.readouterr()  # argparse writes usage and help to the process streams
    assert [run_cli(argv) for argv in queries] == first
    assert [run_cli(argv) for argv in reversed(queries)] == first[::-1]
    assert cli._parser() is parser and cli._parser.cache_info().misses == 1  # built by the first run


def test_seed_and_cap_are_accepted_only_where_they_act(tmp_path):
    target = tmp_path / "c5.txt"
    target.write_text(graphcomp.format_edge_list(graphcomp.build_family("cycle", 5)))
    leaves = {
        "count restricted": ["count", "restricted", "--n", "4", "--k", "2"],
        "count distinct": ["count", "distinct", "--n", "6"],
        "count leading": ["count", "leading", "--mode", "weak", "--n", "5"],
        "count avoid": ["count", "avoid", "--k", "2", "--n", "4"],
        "count contain": ["count", "contain", "--k", "2", "--n", "4"],
        "triangle": ["triangle", "--kind", "pi", "--rows", "3"],
        "series": ["series", "--family", "fweak", "--k", "2", "--order", "4"],
        "graph count": ["graph", "count", "--file", str(target)],
        "graph family": ["graph", "family", "--name", "ladder", "--n", "2"],
        "verify": ["verify", "--suite", "series", "--max-n", "2"],
    }
    for leaf, argv in leaves.items():
        assert run_cli(argv)[0] == 0, leaf
        assert run_cli(argv + ["--seed", "1"])[0] == (0 if leaf == "verify" else 2), leaf
        assert run_cli(argv + ["--cap", "8"])[0] == 2, leaf


# --- verification -------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1])
def test_verify_passes_on_correct_build(seed):
    code, out, _ = run_cli(["verify", "--suite", "all", "--max-n", "10", "--seed", str(seed)])
    assert code == 0
    assert "FAIL" not in out
    assert out.startswith(f"# verify suite=all max-n=10 seed={seed}\n")


def test_verify_refuses_a_max_n_whose_cubic_checks_are_over_the_budget():
    start = time.perf_counter()
    code, out, err = run_cli(["verify", "--max-n", "1000000"])
    assert (code, out) == (3, "")
    assert "verify --suite all --max-n 1000000" in err and "over the budget of" in err
    assert time.perf_counter() - start < 1
    for max_n in (10, 40, 98):  # priced only: the suite at 40 takes seconds
        verify._check_suite_work("all", max_n)
    for suite in ("all", "compositions"):
        with pytest.raises(ResourceLimitError, match=f"--suite {suite} --max-n 99 "):
            verify._check_suite_work(suite, 99)


@pytest.mark.parametrize("suite", VERIFY_SUITES)
def test_verify_runs_every_suite_at_max_n_1(suite):
    code, out, err = run_cli(["verify", "--suite", suite, "--max-n", "1"])
    listed = verify.run_suite(suite, 1, 0)
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == [f"ok   {name}" + (f" ({detail})" if detail else "")
                                    for name, _, detail in listed] + [f"passed {len(listed)}/{len(listed)} checks"]


def test_start_up_imports_none_of_the_modules_that_only_some_commands_read():
    # the counting modules, decimal (the printed series) and fractions
    # (exactnum's lazy import) load on first use; dataclasses would bring
    # inspect, and -S leaves out the site module, which on some installs
    # imports typing itself
    names = ("compcount.verify", "compcount.compositions", "compcount.graphcomp", "compcount.series",
             "compcount.exactnum", "decimal", "fractions", "dataclasses", "inspect", "typing")
    code = (f"import sys, compcount, compcount.cli; compcount.cli.build_parser(); "
            f"print(*[name for name in {names} if name in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout) == (0, "\n"), done.stderr
    assert VERIFY_SUITES == ("all", "compositions", "series", "graphs")
    assert run_cli(["verify", "--suite", "everything"])[0] == 2


# One argv for each entry of cli.COMMANDS, with the compcount modules that a
# new interpreter has imported once it has run it: the graph commands never
# import compositions or series, and no other command but verify imports
# graphcomp, or random, which verify alone draws from.
COMMAND_MODULES = {
    "count restricted": (["--n", "9", "--k", "3", "--max", "4"], {"compositions", "series", "exactnum"}),
    "count distinct": (["--n", "6"], {"compositions", "series", "exactnum"}),
    "count leading": (["--mode", "weak", "--n", "8"], {"compositions", "series", "exactnum"}),
    "count avoid": (["--k", "3", "--n", "10"], {"compositions", "series", "exactnum"}),
    "count contain": (["--k", "3", "--n", "10"], {"compositions", "series", "exactnum"}),
    "triangle": (["--kind", "pi", "--rows", "4"], {"compositions", "series", "exactnum"}),
    "series": (["--family", "contain", "--k", "3", "--order", "8"], {"series", "exactnum"}),
    "graph count": (["--file", "CYCLE"], {"graphcomp", "exactnum"}),
    "graph family": (["--name", "ladder", "--n", "5"], {"graphcomp", "exactnum"}),
    "verify": (["--suite", "graphs", "--max-n", "1"],
               {"compositions", "series", "exactnum", "graphcomp", "verify"}),
}


def test_each_command_imports_only_the_counting_modules_it_reads(tmp_path):
    assert sorted(COMMAND_MODULES) == sorted(" ".join(words) for words, *_ in cli.COMMANDS)
    cycle = tmp_path / "c5.txt"
    cycle.write_text(graphcomp.format_edge_list(graphcomp.build_family("cycle", 5)))
    code = ("import io, sys; from compcount import cli; "
            "assert cli.run(sys.argv[1:], io.StringIO(), io.StringIO()) == 0; "
            "print(*sorted(name for name in sys.modules if name.startswith('compcount.') or name == 'random'))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    for command, (flags, modules) in COMMAND_MODULES.items():
        argv = [*command.split(), *(str(cycle) if flag == "CYCLE" else flag for flag in flags)]
        done = subprocess.run([sys.executable, "-S", "-c", code, *argv], capture_output=True, text=True, env=env)
        assert done.returncode == 0, (argv, done.stderr)
        imported = {name.removeprefix("compcount.") for name in done.stdout.split()}
        assert imported == {"cli", "errors", *modules, *(["random"] if command == "verify" else [])}, argv


def test_run_suite_refuses_an_unknown_suite_and_a_max_n_below_1():
    with pytest.raises(ValueError, match="unknown suite 'everything'"):
        verify.run_suite("everything")
    with pytest.raises(ValueError, match="max_n must be positive"):
        verify.run_suite("all", 0)


def test_an_overflow_in_a_handler_exits_3_as_a_size_too_large_to_price(monkeypatch):
    def overflow(*_):
        raise OverflowError("int too large to convert to float")

    monkeypatch.setattr(graphcomp, "family_count", overflow)
    assert run_cli(["graph", "family", "--name", "cycle", "--n", "5"]) == \
        (3, "", "resource limit: a size too large to price (int too large to convert to float)\n")


def test_verify_csv_needs_no_quoting():
    code, out, _ = run_cli(["verify", "--suite", "all", "--max-n", "4", "--format", "csv"])
    assert code == 0
    code, listed, _ = run_cli(["verify", "--suite", "all", "--max-n", "4", "--format", "json"])
    names = [check["name"] for check in json.loads(listed)["checks"]]
    assert len(names) == 33
    assert not any(char in name for name in names for char in ',"\r\n')
    assert list(csv.reader(io.StringIO(out))) == [["name", "ok"]] + [[name, "ok"] for name in names]


def test_verify_json_reports_checks():
    code, out, _ = run_cli(["verify", "--suite", "series", "--max-n", "4", "--format", "json"])
    assert code == 0
    record = json.loads(out)
    assert record["failed"] == 0
    assert record["passed"] == len(record["checks"])


def test_verify_detects_injected_off_by_one(monkeypatch):
    true_count = compositions.count_partitions_distinct
    monkeypatch.setattr(
        compositions, "count_partitions_distinct", lambda n, k: true_count(n, k) + 1
    )
    code, out, _ = run_cli(["verify", "--suite", "compositions", "--max-n", "6"])
    assert code == 1
    assert "FAIL" in out


def test_verify_detects_injected_graph_error(monkeypatch):
    true_count = graphcomp.family_count

    def skewed(family, n):
        value = true_count(family, n)
        return value + 1 if family == "cycle" else value

    monkeypatch.setattr(graphcomp, "family_count", skewed)
    code, out, _ = run_cli(["verify", "--suite", "graphs", "--max-n", "6"])
    assert code == 1
    assert "FAIL" in out


def test_verify_detects_injected_frontier_error(monkeypatch):
    true_count = graphcomp.count_compositions_frontier

    def skewed(graph):
        value = true_count(graph)
        return value + 1 if graph.vertex_count > 5 else value

    monkeypatch.setattr(graphcomp, "count_compositions_frontier", skewed)
    code, out, _ = run_cli(["verify", "--suite", "graphs", "--max-n", "8"])
    assert code == 1
    assert "FAIL frontier DP matches subset DP" in out
    assert "FAIL ladder recurrence matches the frontier DP" in out


def test_verify_fails_every_check_of_the_leading_totals(monkeypatch):
    # both totals read _leading_total, so each check of them must compare it
    # with a route that does not
    true_total = compositions._leading_total
    monkeypatch.setattr(compositions, "_leading_total", lambda n: true_total(n) + (n == 17))
    checks = verify.run_suite("compositions", 10, 0)
    of_the_totals = [name for name, _, _ in checks if "total" in name and "bounded-part" not in name]
    assert of_the_totals == ["leading totals' column sums match the per-first-part sums",
                             "leading totals match the sums of the per-k series"]
    assert [name for name, ok, _ in checks if not ok] == of_the_totals


def test_verify_reports_the_labels_of_the_cases_that_disagree(monkeypatch):
    true_count = compositions._count_by_dp
    monkeypatch.setattr(compositions, "_count_by_dp", lambda n, k, lower, upper:
                        true_count(n, k, lower, upper) + 1)
    checks = {name: (ok, detail) for name, ok, detail in verify.run_suite("compositions", 4, 0)}
    ok, detail = checks["bounded-part counts match the DP"]
    assert not ok
    assert detail.startswith("n=0 k=0 [0, 3]; n=0 k=0 [1, 4]; ")
    assert detail.count(";") == 2  # the first three cases only


def test_verify_sends_every_complete_graph_through_the_whole_subset_table(monkeypatch):
    # the closed form of K_n and its count through the universal vertices read
    # the same Bell numbers, so K_n needs the whole table as its second route
    true_ways = graphcomp._subset_ways
    complete = set()

    def spy(nbr, *rest):
        n = len(nbr)
        if n and all(mask | 1 << v == (1 << n) - 1 for v, mask in enumerate(nbr)):
            complete.add(n)
        return true_ways(nbr, *rest)

    monkeypatch.setattr(graphcomp, "_subset_ways", spy)
    assert all(ok for _, ok, _ in verify.run_suite("graphs", 12, 0))
    assert complete >= set(range(3, 13))


def test_verify_catches_a_wrong_bell_number_whatever_bell_has_cached():
    # the counts of K_n and K_n - e through their universal vertices read
    # the kept Bell numbers, so their closed forms must not: with bell(10)
    # not cached, both sides would read them
    exactnum.bell(12)
    bells, _ = errors.KEPT["bell"]
    bells[10] += 1
    exactnum.bell.cache_clear()
    checks = {name: (ok, detail) for name, ok, detail in verify.run_suite("graphs", 12, 0)}
    assert checks["family closed forms match the subset DP"] == (
        False, "complete n=10; complete_minus_edge n=10; complete_minus_edge n=12")


def test_verify_catches_a_wrong_series_parallel_count(monkeypatch):
    true_reductions = graphcomp._series_parallel

    def skewed(n, edges):
        count = true_reductions(n, edges)
        return None if count is None else count + 1

    monkeypatch.setattr(graphcomp, "_series_parallel", skewed)
    failed = [name for name, ok, _ in verify.run_suite("graphs", 10, 0) if not ok]
    assert "series-parallel route matches the subset DP" in failed


def test_verify_catches_a_wrong_jump(monkeypatch):
    true_jump = series._jump

    def first_off(gf, n, width=1):
        values = true_jump(gf, n, width)
        values[0] += 1
        return values

    monkeypatch.setattr(series, "_jump", first_off)
    failed = [name for name, ok, _ in verify.run_suite("all", 10, 0) if not ok]
    assert failed == ["avoid/contain jump matches the window recurrence", "neighbouring counts match fresh counts",
                      "leading-summand series match the recurrences", "ladder closed form matches the recurrence",
                      "ladder recurrence matches the frontier DP"]


def test_verify_catches_a_wrong_triangle_row(monkeypatch):
    true_triangle = compositions.triangle
    monkeypatch.setattr(compositions, "triangle", lambda kind, rows: tuple(
        tuple(entry + (n == 7) for entry in row) for n, row in enumerate(true_triangle(kind, rows))))
    failed = [name for name, ok, _ in verify.run_suite("compositions", 8, 0) if not ok]
    assert failed == ["triangle rows match enumeration"]


def test_verify_catches_a_memo_key_shared_by_blocks_that_are_not_isomorphic(monkeypatch):
    monkeypatch.setattr(graphcomp, "_refined_key", lambda adj: (len(adj), sum(map(len, adj)) // 2))
    failed = [name for name, ok, _ in verify.run_suite("graphs", 10, 0) if not ok]
    assert "relabelled blocks take the memo's count" in failed


def test_verify_catches_an_edge_list_that_loses_an_edge(monkeypatch):
    true_format = graphcomp.format_edge_list
    monkeypatch.setattr(graphcomp, "format_edge_list", lambda graph: true_format(graph).rsplit("\n", 2)[0] + "\n")
    failed = [name for name, ok, _ in verify.run_suite("graphs", 6, 0) if not ok]
    assert failed == ["edge lists round-trip"]


# --- output bytes, and the work guard -----------------------------------------

# sha256 and length of each 40-row triangle as the earlier two-pass formatter
# printed it (csv through csv.writer, plain through joined rows).
TRIANGLE_40 = {
    ("pi", "plain"): ("cf8507731b920106e8f872cdf41ea1f855385263e3ad1703abfe74b646f8bd7f", 1771),
    ("pi", "csv"): ("4f78b7976d8853648b6fb1aa43211c3aecf4016a2c127768a79c05985594b310", 6293),
    ("pi", "json"): ("25921f749e3553ee042a3d7f98e83c4978e579475fea2beac71f3e6663b6538a", 30983),
    ("cdistinct", "plain"): ("5c186b85fa333486b219de0ee8ea6db157d3d61d1e75ae57a1419497a5feae76", 2010),
    ("cdistinct", "csv"): ("7876c18de4f1862607462b76024a8e088ae045c1c1e448d3314061d85849c5d6", 6532),
    ("cdistinct", "json"): ("64580ce0c7e94cd87731b5f99f5ce078c4ad8beeb7b8412d2780148b42f1f09a", 31229),
}


@pytest.mark.parametrize("kind,fmt", sorted(TRIANGLE_40))
def test_triangle_output_bytes_are_unchanged(kind, fmt):
    code, out, _ = run_cli(["triangle", "--kind", kind, "--rows", "40", "--format", fmt])
    assert code == 0
    data = out.encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == TRIANGLE_40[kind, fmt]


def per_cell_triangle(kind, rows, fmt):
    """A triangle's output as the earlier formatter built it, from a pair a
    cell (csv, json) or a join of every entry (plain): the oracle of the row
    writer. Each row is padded with zeros to k = n here."""
    table = compositions.triangle(cli.TRIANGLE_KIND_FLAGS[kind], rows)
    padded = [row + (0,) * (n + 1 - len(row)) for n, row in enumerate(table)]
    if fmt == "plain":
        return "".join(" ".join(map(str, row)) + "\n" for row in padded)
    values = [(f"{n}:{k}", str(entry)) for n, row in enumerate(padded) for k, entry in enumerate(row)]
    if fmt == "csv":
        return "index,value\n" + "".join(f"{index},{value}\n" for index, value in values)
    record = {"command": "triangle", "parameters": {"kind": kind, "rows": rows},
              "values": [[index, value] for index, value in values]}
    return json.dumps(record, indent=2) + "\n"


@pytest.mark.parametrize("kind", sorted(cli.TRIANGLE_KIND_FLAGS))
@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_the_row_writer_matches_the_per_cell_triangle(kind, fmt):
    for rows in (1, 2, 3, 4, 5, 40, 300):
        argv = ["triangle", "--kind", kind, "--rows", str(rows), "--format", fmt]
        assert run_cli(argv) == (0, per_cell_triangle(kind, rows, fmt), ""), rows


# The earlier writer of value and verify output, kept as the oracle of _values
# and _check_lines: each command built one record dict, and these printed it.
def _emit(record: dict, fmt: str, out) -> None:
    if fmt == "json":
        json.dump(record_as_json(record), out, indent=2)
        out.write("\n")
        return

    if "checks" in record:
        _emit_checks(record, fmt, out)
        return

    if fmt == "plain":
        out.write("".join(value + "\n" for _, value in record["values"]))
        return

    out.write("index,value\n" + "".join(f"{index},{value}\n" for index, value in record["values"]))


def record_as_json(record: dict) -> dict:
    body: dict = {"command": record["command"], "parameters": record["parameters"]}
    if "checks" in record:
        body["checks"] = record["checks"]
        body["passed"] = sum(1 for c in record["checks"] if c["ok"])
        body["failed"] = sum(1 for c in record["checks"] if not c["ok"])
    else:
        body["values"] = [[index, value] for index, value in record["values"]]
    return body


def _emit_checks(record: dict, fmt: str, out) -> None:
    checks = record["checks"]
    if fmt == "csv":
        out.write("name,ok\n" + "".join(f"{c['name']},{'ok' if c['ok'] else 'FAIL'}\n" for c in checks))
        return
    params = record["parameters"]
    out.write(f"# verify suite={params['suite']} max-n={params['max-n']} seed={params['seed']}\n")
    for check in checks:
        if check["ok"]:
            note = f" ({check['detail']})" if check["detail"] else ""
            out.write(f"ok   {check['name']}{note}\n")
        else:
            out.write(f"FAIL {check['name']}: {check['detail']}\n")
    passed = sum(1 for c in checks if c["ok"])
    out.write(f"passed {passed}/{len(checks)} checks\n")


def record_output(record: dict, fmt: str) -> str:
    out = io.StringIO()
    _emit(record, fmt, out)
    return out.getvalue()


def value_record(command: str, parameters: dict, values) -> dict:
    return {"command": command, "parameters": parameters,
            "values": [(str(n), str(value)) for n, value in enumerate(values)]}


def verify_record(suite: str, max_n: int, seed: int, checks) -> dict:
    return {"command": "verify", "parameters": {"suite": suite, "max-n": max_n, "seed": seed},
            "checks": [{"name": name, "ok": ok, "detail": detail} for name, ok, detail in checks]}


# argv of every value command, with the record the earlier dispatch built for it
VALUE_CASES = [
    (["count", "restricted", "--n", "9", "--k", "3", "--min", "1", "--max", "4"],
     lambda: value_record("count restricted", {"n": 9, "k": 3, "min": 1, "max": 4},
                          [compositions.count_restricted(9, 3, compositions.PartBounds(1, 4))])),
    (["count", "restricted", "--n", "8", "--k", "6"],
     lambda: value_record("count restricted", {"n": 8, "k": 6, "min": 0, "max": None},
                          [compositions.count_restricted(8, 6)])),
    (["count", "distinct", "--n", "30"],
     lambda: value_record("count distinct", {"n": 30, "k": None},
                          [compositions.count_compositions_distinct_total(30)])),
    (["count", "distinct", "--n", "30", "--k", "4"],
     lambda: value_record("count distinct", {"n": 30, "k": 4}, [compositions.count_compositions_distinct(30, 4)])),
    (["count", "leading", "--mode", "strict", "--n", "20"],
     lambda: value_record("count leading", {"mode": "strict", "n": 20, "k": None},
                          [compositions.count_leading_strict_total(20)])),
    (["count", "leading", "--mode", "weak", "--n", "20", "--k", "3"],
     lambda: value_record("count leading", {"mode": "weak", "n": 20, "k": 3},
                          [compositions.count_leading_weak(20, 3)])),
    (["count", "avoid", "--k", "2", "--n", "40"],
     lambda: value_record("count avoid", {"k": 2, "n": 40}, [compositions.count_avoiding(40, 2)])),
    (["count", "contain", "--k", "2", "--n", "40"],
     lambda: value_record("count contain", {"k": 2, "n": 40}, [compositions.count_containing(40, 2)])),
    *[(["series", "--family", family, "--k", "3", "--order", "30"],
       lambda family=family: value_record("series", {"family": family, "k": 3, "order": 30},
                                          series.family_series(family, 3, 30).coefficients))
      for family in series.SERIES_FAMILIES],
    (["series", "--family", "distinct-total", "--order", "0"],
     lambda: value_record("series", {"family": "distinct-total", "k": None, "order": 0},
                          series.gf_distinct_total(0).coefficients)),
    (["series", "--family", "distinct-total", "--order", "25"],
     lambda: value_record("series", {"family": "distinct-total", "k": None, "order": 25},
                          series.gf_distinct_total(25).coefficients)),
    (["graph", "count", "--file", 'ladder "3" \u00e9.txt'],
     lambda: value_record("graph count", {"file": 'ladder "3" \u00e9.txt'}, [74])),
    (["graph", "family", "--name", "kminus", "--n", "9"],
     lambda: value_record("graph family", {"name": "kminus", "n": 9},
                          [graphcomp.family_count("complete_minus_edge", 9)])),
    (["graph", "family", "--name", "path", "--n", "400"],
     lambda: value_record("graph family", {"name": "path", "n": 400}, [1 << 399])),
]


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
@pytest.mark.parametrize("argv,record", VALUE_CASES, ids=[" ".join(argv) for argv, _ in VALUE_CASES])
def test_value_output_matches_the_record_writer(argv, record, fmt, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / 'ladder "3" \u00e9.txt').write_text(graphcomp.format_edge_list(graphcomp.build_family("ladder", 3)))
    assert run_cli(argv + ["--format", fmt]) == (0, record_output(record(), fmt), "")


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_verify_output_matches_the_record_writer(fmt):
    checks = verify.run_suite("all", 4, 3)
    expected = record_output(verify_record("all", 4, 3, checks), fmt)
    assert run_cli(["verify", "--max-n", "4", "--seed", "3", "--format", fmt]) == (0, expected, "")


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_a_failed_check_exits_1_and_prints_like_the_record_writer(fmt, monkeypatch):
    checks = [("a passing check", True, "3 cases"), ("a failing check", False, "n=3 got 5, want 4")]
    monkeypatch.setattr(verify, "run_suite", lambda suite, max_n, seed: checks)
    expected = record_output(verify_record("graphs", 7, 2, checks), fmt)
    code, out, err = run_cli(["verify", "--suite", "graphs", "--max-n", "7", "--seed", "2", "--format", fmt])
    assert (code, out, err) == (1, expected, "")
    if fmt == "plain":
        assert "FAIL a failing check: n=3 got 5, want 4\n" in out
    if fmt == "json":
        record = json.loads(out)
        assert (record["passed"], record["failed"]) == (1, 1)


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_a_long_series_is_written_without_holding_its_output(fmt):
    # order 12000 prints about 20 MB of digits; the earlier writer held them
    # as strings, twice over in plain and csv (about 60 MB traced, 30 in json)
    argv = ["series", "--family", "fweak", "--k", "3", "--order", "12000", "--format", fmt]
    with open(os.devnull, "w") as sink:
        tracemalloc.start()
        try:
            code = cli.run(argv, out=sink, err=sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 20e6


def test_the_largest_triangle_holds_the_table_and_a_row():
    # the rows are printed from the truncated table itself, so the peak is
    # the table and one row of output (about 10 MB)
    with open(os.devnull, "w") as sink:
        tracemalloc.start()
        try:
            codes = [cli.run(["triangle", "--kind", "cdistinct", "--rows", "3000", "--format", fmt],
                             out=sink, err=sink) for fmt in ("csv", "json")]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert codes == [0, 0]
    assert peak < 15e6


@pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS, honoured on Linux")
@pytest.mark.parametrize("output", ["triangle.csv", "triangle.json", "fweak.csv", "contain.csv"])
def test_the_largest_triangle_and_a_12001_term_series_print_in_60_mb(output, tmp_path):
    # the price admits 3000 rows (3821 are refused); its output is written a
    # row at a time, so memory is the table and one row, not the whole output.
    # A series is written a line at a time too, and contain's is divided by
    # its two denominator factors over one list
    import resource

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (60 << 20, 60 << 20))

    name, fmt = output.split(".")
    if name == "triangle":
        argv = ["triangle", "--kind", "cdistinct", "--rows", "3000"]
        cells = 3000 * 3001 // 2
        lines, last = {"csv": (1 + cells, b"\n2999:2999,0\n"),
                       "json": (9 + 4 * cells, b'\n      "2999:2999",\n      "0"\n    ]\n  ]\n}\n')}[fmt]
    else:  # the last term by the family's own counter, not by its series
        argv = ["series", "--family", name, "--k", "3", "--order", "12000"]
        count = {"fweak": compositions.count_leading_weak, "contain": compositions.count_containing}[name]
        lines, last = 12002, f"\n12000,{count(12000, 3)}\n".encode()
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    target = tmp_path / output
    try:
        with open(target, "wb") as out:
            done = subprocess.run([sys.executable, "-m", "compcount", *argv, "--format", fmt],
                                  stdout=out, stderr=subprocess.PIPE, env=env,
                                  preexec_fn=cap_address_space, timeout=10)
        assert (done.returncode, done.stderr) == (0, b"")
        with open(target, "rb") as printed:
            assert sum(chunk.count(b"\n") for chunk in iter(lambda: printed.read(1 << 20), b"")) == lines
            printed.seek(-len(last), os.SEEK_END)
            assert printed.read() == last
    finally:
        target.unlink(missing_ok=True)


def count_k19_minus_a_hamiltonian_cycle(tmp_path, megabytes):
    """graph count on K19 minus a Hamiltonian cycle in a child process under
    an RLIMIT_AS of this many megabytes."""
    import resource

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (megabytes << 20, megabytes << 20))

    n = 19
    edges = [f"{u} {v}" for u in range(n) for v in range(u + 2, n) if (u, v) != (0, n - 1)]
    source = tmp_path / "k19-c19.txt"
    source.write_text("\n".join([str(n), *edges]) + "\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "compcount", "graph", "count", "--file", str(source)],
                          capture_output=True, text=True, env=env, preexec_fn=cap_address_space, timeout=10)


@pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS, honoured on Linux")
def test_k19_minus_a_hamiltonian_cycle_counts_in_100_mb(tmp_path):
    # no vertex is universal, so the subset DP reads only the whole set's
    # count and sums it over the connected sets through the last vertex: its
    # table stops a vertex early and replaces its packed numbers a chunk at a
    # time, so it holds no second copy of them
    done = count_k19_minus_a_hamiltonian_cycle(tmp_path, 100)
    assert (done.returncode, done.stdout, done.stderr) == (0, "4302601688761\n", "")


@pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS, honoured on Linux")
def test_k19_minus_a_hamiltonian_cycle_out_of_memory_exits_3(tmp_path):
    # the work budget admits it, but it needs about 90 MB of address space
    done = count_k19_minus_a_hamiltonian_cycle(tmp_path, 50)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.startswith("resource limit: out of memory") and "Traceback" not in done.stderr


@pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS, honoured on Linux")
def test_the_graph_suite_at_a_huge_max_n_runs_in_a_gigabyte():
    # its ladder check runs 2 min(max_n, 16) rungs, as the other graph checks
    # cap their sizes; 2 max_n rungs ran out of this space past max_n = 75,000
    import resource

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "compcount", "verify", "--suite", "graphs", "--max-n", "100000"],
                          capture_output=True, text=True, env=env, preexec_fn=cap_address_space, timeout=10)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.endswith(" checks\n") and "FAIL" not in done.stdout


@pytest.mark.parametrize("argv", [
    ["count", "distinct", "--n", "10000000"],
    ["count", "distinct", "--n", "10000000", "--k", "5"],
    ["triangle", "--kind", "pi", "--rows", "100000"],
    ["series", "--family", "distinct-total", "--order", "1000000"],
    ["series", "--family", "fstrict", "--k", "3", "--order", "1000000"],
    ["count", "leading", "--mode", "strict", "--n", "1000000"],
    ["count", "leading", "--mode", "weak", "--n", "100000000", "--k", "3"],
    ["graph", "family", "--name", "complete", "--n", "100000"],
    ["graph", "family", "--name", "kminus", "--n", "100000"],
    ["count", "avoid", "--k", "3", "--n", "100000000"],
    ["count", "contain", "--k", "3", "--n", "100000000"],
    ["count", "restricted", "--n", "100000", "--k", "5000", "--min", "0", "--max", "25"],
    ["count", "restricted", "--n", "1000000000000", "--k", "1000000000000"],
    ["graph", "family", "--name", "path", "--n", "1000000000"],
    ["graph", "family", "--name", "ladder", "--n", "100000000"],
    ["graph", "family", "--name", "complete", "--n", "100000", "--emit-graph"],
])
def test_oversized_integer_commands_are_refused_up_front(argv):
    start = time.perf_counter()
    code, out, err = run_cli(argv)
    assert (code, out) == (3, "")
    assert "estimated" in err and "over the budget of" in err
    assert time.perf_counter() - start < 1


NINES = "9" * 400  # past the range of a float


@pytest.mark.parametrize("argv", [
    ["count", "distinct", "--n", NINES],
    ["count", "distinct", "--n", NINES, "--k", "5"],
    ["count", "avoid", "--k", "3", "--n", NINES],
    ["count", "contain", "--k", "3", "--n", NINES],
    ["count", "restricted", "--n", NINES, "--k", "3"],
    ["count", "restricted", "--n", "5", "--k", NINES],
    ["count", "leading", "--mode", "weak", "--n", NINES],
    ["count", "leading", "--mode", "strict", "--n", NINES, "--k", "4"],
    ["series", "--family", "avoid", "--k", "3", "--order", NINES],
    ["series", "--family", "distinct-total", "--order", NINES],
    ["graph", "family", "--name", "cycle", "--n", NINES],
    ["graph", "family", "--name", "ladder", "--n", NINES],
    ["graph", "family", "--name", "complete", "--n", NINES],
    ["graph", "family", "--name", "path", "--n", NINES, "--emit-graph"],
    ["verify", "--max-n", NINES],
    ["graph", "count", "--file", "nines.txt"],
    ["graph", "count", "--file", "nines-308.txt"],
    ["graph", "count", "--file", "nines-5000.txt"],
])
def test_sizes_past_the_range_of_a_float_are_refused(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, digits in (("nines.txt", 400), ("nines-308.txt", 308), ("nines-5000.txt", 5000)):
        (tmp_path / name).write_text("9" * digits + "\n0 1\n")
    start = time.perf_counter()
    code, out, err = run_cli(argv)
    assert (code, out) == (3, "")
    assert err.startswith("resource limit: ") and "Traceback" not in err
    if argv[-1] in ("nines.txt", "nines-5000.txt"):
        digits = 400 if argv[-1] == "nines.txt" else 5000
        assert err == f"resource limit: line 1: a vertex count of {digits} digits is too large to price\n"
    assert time.perf_counter() - start < 1


def test_running_out_of_memory_exits_3_with_no_traceback(tmp_path, monkeypatch):
    # once while counting, once while the lazy lines are written
    def no_memory(*_):
        raise MemoryError

    def decimals_then_no_memory(*_):
        yield 1
        raise MemoryError

    source = tmp_path / "k3.txt"
    source.write_text("3\n0 1\n1 2\n0 2\n")
    monkeypatch.setattr(graphcomp, "reduce_and_count", no_memory)
    monkeypatch.setattr(series, "family_decimals", decimals_then_no_memory)
    for argv in (["graph", "count", "--file", str(source)],
                 ["series", "--family", "fweak", "--k", "3", "--order", "5"]):
        code, _, err = run_cli(argv)
        assert code == 3, argv
        assert err.startswith("resource limit: out of memory") and "Traceback" not in err, argv


# Library calls on sizes past the range of a float, whose cost estimates overflow.
PAST_A_FLOAT = [
    lambda: compositions.count_avoiding(10 ** 400, 3),
    lambda: compositions.count_containing(10 ** 400, 3),
    lambda: compositions.count_leading_weak(10 ** 400, 3),
    lambda: series.gf_distinct_total(10 ** 400),
    lambda: series.family_series("fstrict", 3, 10 ** 400),
    lambda: graphcomp.family_count("cycle", 10 ** 400),
    lambda: graphcomp.reduce_and_count(graphcomp.LabeledGraph(10 ** 308 - 1)),
    lambda: compositions.count_compositions_distinct(10 ** 400, 5),
    lambda: compositions.count_compositions_distinct_total(10 ** 400),
    lambda: compositions.triangle(compositions.PARTITIONS_DISTINCT, 10 ** 400),
    lambda: compositions.count_leading_strict_total(10 ** 400),
    lambda: compositions.leading_weak_total(10 ** 400),
    lambda: compositions.fibonacci_higher(10 ** 400, 10 ** 400),
    lambda: exactnum.bell(10 ** 400),
    lambda: graphcomp.family_count("complete", 10 ** 400),
    lambda: exactnum.stirling1(10 ** 400, 2),
    lambda: exactnum.stirling2(10 ** 400, 2),
    lambda: graphcomp.ladder_binet(10 ** 400),
    lambda: graphcomp.build_family("complete", 10 ** 400),
    lambda: compositions.count_restricted(5, 10 ** 400, compositions.PartBounds(0, 5)),
]


@pytest.mark.parametrize("call", [
    lambda: compositions.count_compositions_distinct_total(10 ** 7),
    lambda: compositions.count_compositions_distinct(10 ** 7, 5),
    lambda: compositions.triangle(compositions.PARTITIONS_DISTINCT, 10 ** 5),
    lambda: compositions.count_leading_strict_total(10 ** 6),
    lambda: compositions.leading_weak_total(10 ** 6),
    lambda: compositions.count_leading_weak(10 ** 8, 3),
    lambda: series.gf_distinct_total(10 ** 6),
    lambda: series.family_series("fstrict", 3, 10 ** 6),
    lambda: exactnum.bell(10 ** 5),
    lambda: compositions.count_avoiding(10 ** 8, 3),
    lambda: compositions.count_containing(10 ** 8, 3),
    lambda: compositions.count_restricted(10 ** 5, 5000, compositions.PartBounds(0, 25)),
    lambda: graphcomp.family_count("cycle", 10 ** 9),
    lambda: graphcomp.ladder_binet(10 ** 8),
    lambda: graphcomp.build_family("complete", 10 ** 5),
    lambda: exactnum.stirling1(10 ** 5, 2),
    lambda: exactnum.stirling2(10 ** 5, 2),
    *PAST_A_FLOAT,
])
def test_library_calls_are_refused_like_the_cli(call):
    start = time.perf_counter()
    message = "a size too large to price" if call in PAST_A_FLOAT else "over the budget of"
    with pytest.raises(ResourceLimitError, match=message):
        call()
    assert time.perf_counter() - start < 1


def test_a_refusal_does_not_depend_on_the_table_grown_before_it():
    # the first sizes the guards refuse; each estimate counts the whole table
    for argv, smaller in ((["count", "distinct", "--n", "24409"], ["count", "distinct", "--n", "3000"]),
                          (["triangle", "--kind", "pi", "--rows", "3821"],
                           ["triangle", "--kind", "pi", "--rows", "3000"]),
                          (["graph", "family", "--name", "complete", "--n", "2771"],
                           ["graph", "family", "--name", "complete", "--n", "1500"])):
        assert run_cli(argv)[0] == 3
        assert run_cli(smaller)[0] == 0
        assert run_cli(argv)[0] == 3


def test_avoid_and_contain_with_k_near_n_are_linear():
    n, k = 20000, 19999
    for command, want in (("avoid", (1 << k) - 2), ("contain", 2)):
        start = time.perf_counter()
        code, out, _ = run_cli(["count", command, "--k", str(k), "--n", str(n)])
        assert time.perf_counter() - start < 1
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert (code, int(out)) == (0, want)
        finally:
            sys.set_int_max_str_digits(limit)


def test_closed_form_restricted_counts_answer_at_any_size():
    n = 10 ** 12
    code, out, _ = run_cli(["count", "restricted", "--n", str(n), "--k", "5"])
    assert (code, out) == (0, f"{math.comb(n + 4, 4)}\n")
    # each part at least 2: the compositions of 5000 - 100 into 100 parts of at least 0
    code, out, _ = run_cli(["count", "restricted", "--n", "5000", "--k", "100", "--min", "2"])
    assert (code, out) == (0, f"{math.comb(4899, 99)}\n")


def test_restricted_counts_past_any_sum_of_the_parts_are_zero():
    start = time.perf_counter()
    code, out, _ = run_cli(["count", "restricted", "--n", "300000", "--k", "1000",
                            "--min", "1", "--max", "50"])
    assert (code, out) == (0, "0\n")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("family", ["fstrict", "fweak", "avoid", "contain"])
def test_a_huge_series_is_refused_before_its_polynomials_are_built(family):
    argv = ["series", "--family", family, "--order", "30000000", "--k", "30000000"]
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code, out, err = run_cli(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (3, "") and "over the budget of" in err
    assert time.perf_counter() - start < 1
    assert peak < 5e6
    huge = ["series", "--family", family, "--order", "1000000000000", "--k", "1000000000000"]
    code, out, err = run_cli(huge)
    assert (code, out) == (3, "") and "over the budget of" in err


def test_series_with_a_huge_k_is_built_at_order_size():
    start = time.perf_counter()
    huge = run_cli(["series", "--family", "contain", "--k", "1000000000", "--order", "3"])
    assert time.perf_counter() - start < 1
    assert huge == run_cli(["series", "--family", "contain", "--k", "4", "--order", "3"])


def test_an_edge_list_over_the_limit_is_refused_unparsed(tmp_path):
    target = tmp_path / "comments.txt"
    size = graphcomp.EDGE_LIST_MAX_CHARS + 1
    target.write_text("#\n" * (size // 2) + "#" * (size % 2))
    assert target.stat().st_size == size
    start = time.perf_counter()
    code, out, err = run_cli(["graph", "count", "--file", str(target)])
    assert (code, out) == (3, "")
    assert f"an edge list of more than {size - 1} characters" in err and "over the budget of" in err
    assert time.perf_counter() - start < 1


def test_a_huge_vertex_count_is_refused_before_the_block_split(tmp_path):
    target = tmp_path / "empty.txt"
    target.write_text("1000000000\n")
    start = time.perf_counter()
    code, _, err = run_cli(["graph", "count", "--file", str(target)])
    assert code == 3 and "1000000000 vertices" in err
    assert time.perf_counter() - start < 1


def test_a_block_too_big_for_any_memory_is_refused_at_any_cap(tmp_path):
    target = tmp_path / "k48-c48.txt"
    target.write_text(graphcomp.format_edge_list(complete_minus_cycle(48)))
    start = time.perf_counter()
    code, _, err = run_cli(["graph", "count", "--file", str(target)])
    assert code == 3
    assert "the subset DP over 2^48 vertex sets needs" in err
    assert time.perf_counter() - start < 5
    # K48 itself has 48 universal vertices, so the subset side holds one state
    target.write_text(graphcomp.format_edge_list(graphcomp.build_family("complete", 48)))
    assert run_cli(["graph", "count", "--file", str(target)]) == (0, f"{exactnum.bell(48)}\n", "")


@pytest.mark.parametrize("family", sorted(series.SERIES_FAMILIES))
def test_printed_series_match_the_int_expansion(family):
    # the CLI expands these series over Decimals; the int expansion is the
    # oracle of every value's text (the json layout around the values is
    # pinned by test_value_output_matches_the_record_writer)
    for order in range(301):
        for k in (*range(1, 9), order + 5):
            text = list(map(str, series.family_series(family, k, order).coefficients))
            argv = ["series", "--family", family, "--k", str(k), "--order", str(order), "--format"]
            assert run_cli(argv + ["plain"]) == (0, "".join(f"{value}\n" for value in text), ""), (k, order)
            csv_text = "index,value\n" + "".join(f"{n},{value}\n" for n, value in enumerate(text))
            assert run_cli(argv + ["csv"]) == (0, csv_text, ""), (k, order)
            code, out, err = run_cli(argv + ["json"])
            cells = [[str(n), value] for n, value in enumerate(text)]
            assert (code, json.loads(out)["values"], err) == (0, cells, ""), (k, order)


# --- the resource contract over every command --------------------------------

# Edge lists for graph count: graphs to count or refuse, and malformed files.
CONTRACT_FILES = {
    "cycle.txt": graphcomp.format_edge_list(graphcomp.build_family("cycle", 40)),
    "ladder.txt": graphcomp.format_edge_list(graphcomp.build_family("ladder", 30)),
    "k30-c30.txt": graphcomp.format_edge_list(complete_minus_cycle(30)),
    "k30-m5.txt": graphcomp.format_edge_list(complete_minus_matching(30, 5)),
    "k40-m10.txt": graphcomp.format_edge_list(complete_minus_matching(40, 10)),
    **{f"random-{n}-{p}.txt": graphcomp.format_edge_list(graphcomp.random_connected_graph(Random(n), n, p))
       for n, p in ((10, 0.9), (18, 0.5), (25, 0.1), (40, 0.05), (300, 0.002))},
    "tree.txt": graphcomp.format_edge_list(graphcomp.random_tree(Random(3), 500)),
    # blocks past the memo's vertex bound: one with no K_4 minor, which the
    # series-parallel reductions count, and one with a K_4 minor, where they
    # stall and a DP counts it
    "two-tree.txt": graphcomp.format_edge_list(verify._partial_two_tree(Random(200), 200, keep=1)),
    "crossed-cycle.txt": graphcomp.format_edge_list(graphcomp.LabeledGraph(
        100, {(i, (i + 1) % 100) for i in range(100)} | {(0, 50), (25, 75)})),
    "empty.txt": "",
    "words.txt": "three\n0 1\n",
    "three-fields.txt": "3\n0 1 2\n",
    "loop.txt": "2\n0 0\n",
    "out-of-range.txt": "2\n0 5\n",
    "negative.txt": "-1\n",
    "superscript.txt": "3\n0 \u00b2\n",
    "nines.txt": "9" * 400 + "\n0 1\n",
    "huge.txt": "1000000000\n",
}


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    folder = tmp_path_factory.mktemp("contract")
    for name, text in CONTRACT_FILES.items():
        (folder / name).write_text(text, encoding="utf-8")
    (folder / "latin-1.txt").write_bytes(b"3\n0 1\xff\n")
    return folder


@st.composite
def contract_argv(draw):
    """An argv for one entry of the command table, in any format and flag
    order: each optional flag given or not, sizes from -5 to 10^12, files
    read from the folder of contract_dir; about 3 in 8 are broken by a
    missing flag, a value of the wrong kind or an extra flag."""
    words, _, flags, _ = draw(st.sampled_from(cli.COMMANDS))
    given_flags = []
    for flag, options in flags:
        if not options.get("required") and draw(st.booleans()):
            continue
        if options.get("action") == "store_true":
            given_flags.append([flag])
        elif "choices" in options:
            given_flags.append([flag, draw(st.sampled_from(options["choices"]))])
        elif options.get("type") is int:
            given_flags.append([flag, str(draw(st.one_of(st.integers(-5, 40), st.integers(-5, 10 ** 12))))])
        else:
            given_flags.append([flag, draw(st.sampled_from([*CONTRACT_FILES, "latin-1.txt", "missing.txt", "."]))])
    fault = draw(st.sampled_from(["none", "missing", "bad value", "extra"])) if draw(st.booleans()) else "none"
    if fault == "extra" or not given_flags:
        given_flags.append(draw(st.sampled_from([["--seed", "1"], ["--n", "3"], ["--cap", "8"], ["--bogus"]])))
    elif fault == "missing":
        del given_flags[draw(st.integers(0, len(given_flags) - 1))]
    elif fault == "bad value":
        given_flags[draw(st.integers(0, len(given_flags) - 1))][1:] = [draw(st.sampled_from(["x", "1.5", ""]))]
    given_flags.append(draw(st.sampled_from([[], ["--format", "plain"], ["--format", "csv"], ["--format", "json"]])))
    return [*words, *chain.from_iterable(draw(st.permutations(given_flags)))]


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=contract_argv())
def test_every_command_keeps_the_resource_contract(argv, contract_dir):
    # under a budget of 1e7 word steps every admitted command takes
    # milliseconds; any argv exits 0-3 with no traceback
    out, err, process_out, process_err = io.StringIO(), io.StringIO(), io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, \
            contextlib.redirect_stdout(process_out), contextlib.redirect_stderr(process_err):
        patch.setattr(errors, "WORK_BUDGET", 1e7)
        patch.chdir(contract_dir)
        code = cli.run(argv, out=out, err=err)
    event(f"{' '.join(word for word in argv[:2] if not word.startswith('-'))}: exit {code}")
    assert "Traceback" not in err.getvalue() + process_err.getvalue(), argv
    # 0 prints the answer; 1 is a domain error (a failed verify check, which
    # also exits 1, is a wrong count); 2 a usage error, from argparse or the
    # command; 3 a refusal
    assert code in (0, 1, 2, 3), argv
    if code == 0:
        assert out.getvalue() and not err.getvalue(), argv
    else:
        prefix = {1: "error: ", 2: "usage error: ", 3: "resource limit: "}[code]
        assert err.getvalue().startswith(prefix) or code == 2 and process_err.getvalue(), argv


def parse_outcome(parse, argv):
    """What parse(argv) gives: its namespace less the tree's command and
    subcommand, or the code of the SystemExit it raises; with what argparse
    writes to the process's stdout and stderr."""
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            args = vars(parse(argv))
            outcome = {key: value for key, value in args.items() if key not in ("command", "subcommand")}
        except SystemExit as exc:
            outcome = exc.code
    return outcome, out.getvalue(), err.getvalue()


# help at every level of the tree, and argv that the tree reports from its top
# parser, that a command's parser might read otherwise, or that argparse
# treats specially
AVOID = ["count", "avoid", "--k", "3", "--n", "5"]
PARSE_EDGE_ARGV = [
    *([*words, flag] for words in [[], ["count"], ["graph"], *(list(words) for words, *_ in cli.COMMANDS)]
      for flag in ("-h", "--help")),
    [], ["bogus"], ["series", "count"], [*AVOID, "extra"],
    ["count", "avoid", "--n", "5", "--k"], ["count", "avoid", "--k=3", "--n", "5"], [*AVOID, "--fo", "csv"],
    ["verify", "--max", "2"], ["--format", "csv", *AVOID], ["count", "avoid", "--", "--k", "3", "--n", "5"],
    ["graph", "count", "--file", "-h"], ["count", "avoid", "--k", "-3", "--n", "5"],
]


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=contract_argv())
def test_each_argv_parses_as_the_whole_parser_parses_it(argv):
    # _run parses a query with its command's parser alone; the tree is the reference
    assert parse_outcome(cli._parse, argv) == parse_outcome(cli._parser().parse_args, argv), argv


for edge_argv in PARSE_EDGE_ARGV:
    test_each_argv_parses_as_the_whole_parser_parses_it = example(argv=edge_argv)(
        test_each_argv_parses_as_the_whole_parser_parses_it)


def test_the_readme_command_lines_print_their_numbers(tmp_path, monkeypatch):
    # each line of README's "Command line" block that ends in "# <number>"
    # prints that number; a line that redirects to a file writes it for the
    # lines after it
    monkeypatch.chdir(tmp_path)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
    checked = 0
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        words = shlex.split(command)
        assert words[0] == "compcount", line
        target = None
        if ">" in words:
            words, target = words[:words.index(">")], words[-1]
        elif not comment.strip().isdigit():
            continue
        code, out, err = run_cli(words[1:])
        assert (code, err) == (0, ""), line
        if target:
            (tmp_path / target).write_text(out)
        else:
            assert out == f"{comment.strip()}\n", line
            checked += 1
    assert checked == 7
