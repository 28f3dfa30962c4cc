"""What the counters keep between calls: errors.KEPT and the registered
memos, which errors.forget() drops, and which never change whether a call
is refused."""

import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from compcount import compositions, errors, exactnum, graphcomp, series
from compcount.errors import ResourceLimitError


def complete(n):
    return graphcomp.build_family("complete", n)


def outcome(call):
    """The message of the refusal that call() raises, or "answered"."""
    try:
        call()
    except ResourceLimitError as refusal:
        return str(refusal)
    return "answered"


# (a warm call at the full budget, a call that the lowered budget refuses,
# that budget); the block memo is left out: a hit runs no counter, so it is
# not priced
REFUSALS = {
    "avoid jump": (lambda: compositions.count_avoiding(3000, 5),
                   lambda: compositions.count_avoiding(3001, 5), 1e4),
    "leading total": (lambda: compositions.leading_weak_total(500),
                      lambda: compositions.count_leading_strict_total(501), 1e4),
    "printed series": (lambda: series.family_decimals("contain", 4, 2000),
                       lambda: series.family_decimals("contain", 4, 1999), 1e5),
    "triangle": (lambda: compositions.triangle(compositions.COMPOSITIONS_DISTINCT, 300),
                 lambda: compositions.count_compositions_distinct(250, 6), 1e4),
    "Stirling row": (lambda: exactnum.stirling2(200, 5), lambda: exactnum.stirling1(201, 5), 1e4),
    "Bell sum of the subset DP": (lambda: exactnum.bell(40),
                                  lambda: graphcomp.count_compositions_graph(complete(40)), 1e4),
}


@pytest.mark.parametrize("warm, call, budget", [
    *REFUSALS.values(),
    # bell's memo answers a hit without pricing it (the FOUND line on
    # exactnum.bell in CHANGES.md); ROADMAP item 2b drops that memo
    pytest.param(lambda: exactnum.bell(40), lambda: graphcomp.family_count("complete", 40), 1e4,
                 marks=pytest.mark.xfail(strict=True, reason="a hit of bell's memo is not priced")),
], ids=[*REFUSALS, "complete family"])
def test_a_refusal_does_not_depend_on_what_is_kept(monkeypatch, warm, call, budget):
    warm()
    monkeypatch.setattr(errors, "WORK_BUDGET", budget)
    kept = outcome(call)
    errors.forget()
    fresh = outcome(call)
    assert "needs an estimated" in fresh
    assert kept == fresh


# Run in a new interpreter: import every compcount module, snapshot every
# module-level dict, list, set and deque and every memo's size, run the
# argv lists given, forget, and print the entries of KEPT and the memos
# filled before forget() and the names whose snapshot then differs.
SNAPSHOT = """
import collections, copy, importlib, io, json, pkgutil, sys
import compcount
from compcount import cli, errors

modules = [compcount] + [importlib.import_module(f"compcount.{info.name}")
                         for info in pkgutil.iter_modules(compcount.__path__)]

def snapshot():
    state = {}
    for module in modules:
        for name, value in vars(module).items():
            if name.startswith("__"):
                continue  # the module's own attributes, such as __builtins__
            key = f"{module.__name__}.{name}"
            if isinstance(value, (dict, list, set, collections.deque)):
                state[key] = copy.deepcopy(value)
            elif hasattr(value, "cache_info"):
                state[key] = value.cache_info().currsize
    return state

before = snapshot()
for argv in json.loads(sys.argv[1]):
    assert cli.run(argv, out=io.StringIO(), err=io.StringIO()) == 0, argv
kept = sorted(errors.KEPT)
memos = sorted(key for key, value in snapshot().items() if isinstance(value, int) and value)
errors.forget()
after = snapshot()
changed = sorted(key for key in before.keys() | after.keys() if before.get(key) != after.get(key))
print(json.dumps([kept, memos, changed]))
"""


def test_forget_restores_the_state_of_a_new_import(tmp_path):
    graphs = {"cycle": graphcomp.build_family("cycle", 9), "complete": complete(7),
              "dense": graphcomp.random_connected_graph(Random(3), 12, 0.5),
              "glued": graphcomp.LabeledGraph(9, {(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5),
                                                  (5, 6), (6, 7), (7, 8), (6, 8)})}
    for name, graph in graphs.items():
        (tmp_path / name).write_text(graphcomp.format_edge_list(graph))
    argvs = [
        ["verify", "--suite", "all", "--max-n", "3"],  # its neighbour check forgets, so it runs first
        ["count", "restricted", "--n", "10", "--k", "3", "--max", "4"],
        ["count", "distinct", "--n", "30"],
        ["count", "distinct", "--n", "30", "--k", "3"],
        ["count", "leading", "--mode", "weak", "--n", "40"],
        ["count", "avoid", "--k", "3", "--n", "2000"],
        ["count", "contain", "--k", "3", "--n", "2001"],
        ["triangle", "--kind", "pi", "--rows", "20"],
        ["series", "--family", "contain", "--k", "4", "--order", "30"],
        ["graph", "family", "--name", "complete", "--n", "12"],
        *(["graph", "count", "--file", str(tmp_path / name)] for name in graphs),
    ]
    src = str(Path(errors.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", SNAPSHOT, json.dumps(argvs)],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    kept, memos, changed = json.loads(done.stdout)
    assert set(kept) == {"avoiding", "leading", "decimals", "partitions-distinct", "compositions-distinct",
                         "stirling2", "bell", "blocks"}
    # the package's own names, such as compcount.bell, are bound on first use,
    # and no command uses them
    assert memos == ["compcount.cli._parser", "compcount.exactnum.bell", "compcount.graphcomp._field_bits",
                     "compcount.graphcomp._state_bounds", "compcount.graphcomp._successors"]
    assert changed == []
