"""Tests of the benchmark itself: its inputs, references, checker and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import sys
from collections import Counter
from pathlib import Path
from random import Random

import pytest

from compcount import compositions, exactnum, graphcomp, series
from compcount.compositions import PartBounds

import references
import run
import tracing
import workloads
from tracing import Span


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(name):
    first, second = workloads.generate(name, 7), workloads.generate(name, 7)
    assert [q.argv for q in first.queries] == [q.argv for q in second.queries]
    assert [q.answer for q in first.queries] == [q.answer for q in second.queries]
    assert first.files == second.files
    assert len(first.queries) >= 100
    assert first.digest() != workloads.generate(name, 8).digest()


def test_block_product_matches_enumeration():
    rng = Random(3)
    for stratum, n in enumerate(list(range(2, 11)) * 4):
        edges, count = workloads.block_tree(rng, n, stratum)
        graph = graphcomp.LabeledGraph(n, frozenset(edges))
        assert len(graphcomp.enumerate_graph_compositions(graph)) == count
        assert graphcomp.reduce_and_count(graph) == count


def test_relabelled_edge_list_keeps_the_count():
    rng = Random(5)
    edges, count = workloads.block_tree(rng, 40, 3)
    text = workloads.edge_list_text(rng, 40, edges)
    assert graphcomp.reduce_and_count(graphcomp.parse_edge_list(text)) == count


def test_pinned_dense_counts():
    pool = workloads.load_pinned()
    rng = Random(11)
    for entry in pool[10] + pool[11]:
        text = workloads.edge_list_text(rng, entry["n"], entry["edges"])
        assert graphcomp.count_compositions_graph(graphcomp.parse_edge_list(text)) == \
            int(entry["count"])
    entry = pool[10][0]
    graph = graphcomp.LabeledGraph(10, frozenset(map(tuple, entry["edges"])))
    assert len(graphcomp.enumerate_graph_compositions(graph)) == int(entry["count"])


def test_references_agree_with_the_program_on_small_sizes():
    table = references.partitions_at_most(references.staircase_k_max(40), 40)
    strict, weak = references.leading_totals(40, False), references.leading_totals(40, True)
    for n in range(1, 40):
        assert references.distinct_total(n, table) == \
            compositions.count_compositions_distinct_total(n)
        for k in range(n + 1):
            assert exactnum.factorial(k) * references.distinct_partitions(n, k, table) == \
                compositions.count_compositions_distinct(n, k)
        assert strict[n] == compositions.count_leading_strict_total(n)
        assert weak[n] == compositions.leading_weak_total(n)
    for k in range(1, 6):
        found = references.avoid_contain(k, set(range(30)))
        assert [found[n][0] for n in range(30)] == list(series.gf_avoiding(k).expand(29).coefficients)
        assert [found[n][1] for n in range(30)] == \
            list(series.gf_containing(k).expand(29).coefficients)
        for weak_mode, gf in ((False, series.gf_leading_strict), (True, series.gf_leading_weak)):
            assert references.leading_counts(k, 30, weak_mode) == list(gf(k).expand(30).coefficients)
    for n, k, lo, hi in [(30, 5, 2, 9), (17, 4, 0, 3), (0, 0, 1, 2), (40, 7, 1, 40)]:
        assert references.bounded_compositions(n, k, lo, hi) == \
            compositions.count_restricted(n, k, PartBounds(lo, hi))
    assert references.bell_numbers(30) == [exactnum.bell(n) for n in range(31)]
    assert [references.ladder_count(r) for r in range(1, 30)] == \
        [graphcomp.family_count("ladder", r) for r in range(1, 30)]


def test_big_answers_are_rendered_without_lifting_the_limit():
    assert sys.get_int_max_str_digits() in (0, 4300)
    value = 3**20_000  # 9543 digits
    text = references.decimal(value)
    assert len(text) == 9543
    assert int(text[:50]) == value // 10**9493 and int(text[-50:]) == value % 10**50
    over, under = references.expected_outputs([("ladder", 8000), ("ladder", 5000)])
    assert over.over_limit and not under.over_limit


class FakeCli:
    def __init__(self, code=0, text="", error=None, stderr="error: boom"):
        self.code, self.text, self.error, self.stderr = code, text, error, stderr

    def run(self, argv, out, err):
        if self.error:
            raise self.error
        out.write(self.text)
        err.write(self.stderr + "\n" if self.code else "")
        return self.code


def judged(clis, answers):
    argv = ("graph", "count")
    expected = references.expected_outputs(answers)
    outcomes = [run.run_query(cli, argv) for cli in clis]
    return run.judge([argv] * len(clis), outcomes, expected)


def test_checker_flags_a_wrong_answer():
    tally = judged([FakeCli(text="27\n")], [("value", 27)])
    assert (tally.attempted, tally.failed, tally.unexpected, tally.correct_answers) == (1, 0, 0, 1)
    tally = judged([FakeCli(text="28\n"), FakeCli(code=1),
                    FakeCli(error=RecursionError("deep"))], [("value", 27)] * 3)
    assert (tally.attempted, tally.failed, tally.wrong, tally.nonzero_exits) == (3, 3, 1, 1)
    assert tally.unexpected == 3
    assert set(tally.failures) == {"UNEXPECTED wrong answer to graph count",
                                   "UNEXPECTED exit 1: error: boom",
                                   "UNEXPECTED raised RecursionError: deep"}


def test_only_the_known_defect_on_answers_over_the_limit_is_expected():
    known = f"error: {run.KNOWN_DEFECT}; use sys.set_int_max_str_digits() to increase the limit"
    over, under = ("ladder", 8000), ("ladder", 5000)
    tally = judged([FakeCli(code=1, stderr=known)], [over])
    assert (tally.failed, tally.unexpected) == (1, 0)
    # The same error on an answer under the limit, another error on one over
    # it (say, a resource limit), or a wrong answer over it are unexpected.
    tally = judged([FakeCli(code=1, stderr=known), FakeCli(code=3, stderr="error: too many"),
                    FakeCli(text="1\n")], [under, over, over])
    assert (tally.failed, tally.unexpected) == (3, 3)
    # Once the defect is fixed, the right answer passes.
    fixed = FakeCli(text=references.render_value(references.ladder_count(8000)))
    tally = judged([fixed], [over])
    assert (tally.failed, tally.correct_answers) == (0, 1)


def test_harrell_davis_quantiles():
    values = [float(v) for v in range(1, 102)]
    assert abs(run.harrell_davis(values, 0.5) - 51) < 1e-9
    assert 89 < run.harrell_davis(values, 0.9) < 93
    assert abs(run.harrell_davis([2.0] * 120, 0.9) - 2.0) < 1e-9


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        Span("cli.run", 0.0, 10.0, None, 0),
        Span("graphcomp.reduce_and_count", 1.0, 9.0, 0, 0),
        Span("graphcomp.count_compositions_graph", 2.0, 4.0, 1, 0),
        Span("graphcomp.count_compositions_graph", 5.0, 8.5, 1, 0),
        Span("graphcomp.count_compositions_graph", 6.0, 7.0, 3, 0),  # nested, same name
        Span("cli.run", 11.0, 12.5, None, 1),
    ]
    assert tracing.self_times(spans) == [2.0, 2.5, 2.0, 2.5, 1.0, 1.5]
    inclusive = tracing.inclusive_times(spans)
    assert inclusive["graphcomp.count_compositions_graph"] == 5.5
    assert inclusive["cli.run"] == 11.5
    metrics = tracing.layer_metrics(spans, Counter())
    assert metrics["cli.self_s"] == 3.5
    assert metrics["graphcomp.reduce_and_count.self_s"] == 2.5
    assert metrics["graphcomp.count_compositions_graph.calls"] == 3


@pytest.fixture
def restore_program_modules():
    saved = {name: module for name, module in sys.modules.items()
             if name == "compcount" or name.startswith("compcount.")}
    yield
    for name in [m for m in sys.modules if m == "compcount" or m.startswith("compcount.")]:
        del sys.modules[name]
    sys.modules.update(saved)


def test_traced_run_reports_every_per_layer_metric(restore_program_modules, tmp_path):
    edge_list = tmp_path / "c5.txt"
    edge_list.write_text("5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    queries = [
        workloads.Query(("graph", "count", "--file", str(edge_list)), ("value", 27)),
        workloads.Query(("graph", "family", "--name", "complete", "--n", "6"), ("bell", 6)),
        workloads.Query(("count", "contain", "--k", "2", "--n", "9"), ("contain", 9, 2)),
        workloads.Query(("series", "--family", "distinct-total", "--order", "12"),
                        ("distinct-total-series", 12, False)),
    ]
    outcomes, metrics, spans = run.traced_run(queries, seconds=5)
    expected = references.expected_outputs([q.answer for q in queries])
    tally = run.judge([q.argv for q in queries] * 2, outcomes, expected * 2)
    listed = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert sorted(metrics) == sorted(m["name"] for m in listed["per_layer"])
    assert (tally.attempted, tally.failed) == (8, 0)
    assert metrics["graphcomp.count_compositions_graph.calls"] == 1
    assert metrics["graphcomp.count_compositions_graph.states_computed"] == 32
    assert metrics["compositions.count_containing.calls"] == 1
    assert metrics["compositions.count_avoiding.calls"] == 1  # nested in count_containing
    assert metrics["exactnum.bell.cache_entries"] == 1  # reached through family_count
    assert metrics["cli.output_bytes"] > 0 and metrics["cli.nonzero_exits"] == 0
    names = {span[0] for span in spans}
    assert {"exactnum.bell", "series.series_from_rational", "cli.run"} <= names
