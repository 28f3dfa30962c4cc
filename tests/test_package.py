"""The package's public names, which it imports on first use, and two imports
of the program side by side, as a benchmark that holds a plain and a traced
import runs them."""

import importlib
import io
import sys
import types

import pytest

import compcount
from compcount import graphcomp

# The library API: the package's public names before they were imported on
# first use.
PUBLIC_NAMES = [
    "COMPOSITIONS_DISTINCT", "Composition", "FAMILIES", "GraphParseError", "LabeledGraph", "NONNEGATIVE_PARTS",
    "PARTITIONS_DISTINCT", "POSITIVE_PARTS", "PartBounds", "RationalGF", "ResourceLimitError", "TruncatedSeries",
    "VERIFY_SUITES", "bell", "binomial", "binomial_via_partition_multiplicities", "build_family",
    "count_avoiding", "count_compositions_distinct", "count_compositions_distinct_total",
    "count_compositions_frontier", "count_compositions_graph", "count_containing", "count_leading_strict",
    "count_leading_strict_total", "count_leading_weak", "count_partitions_distinct", "count_restricted",
    "enumerate_compositions", "enumerate_graph_compositions", "equal_block_partitions", "exact_div",
    "factorial", "family_count", "family_series", "fibonacci_higher", "format_edge_list",
    "gf_all_compositions", "gf_avoiding", "gf_containing", "gf_distinct_total", "gf_leading_strict",
    "gf_leading_weak", "is_connected", "ladder_binet", "leading_weak_total", "multinomial",
    "parse_edge_list", "random_connected_graph", "random_graph", "random_tree", "reduce_and_count",
    "series_from_rational", "stirling1", "stirling1_via_compositions", "stirling2",
    "stirling2_via_compositions", "triangle",
]
MODULES = ("compositions", "errors", "exactnum", "graphcomp", "series", "verify")


def test_every_public_name_is_the_object_its_module_defines():
    assert compcount.__all__ == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(compcount))
    modules = [importlib.import_module(f"compcount.{name}") for name in MODULES]
    for name in PUBLIC_NAMES:
        homes = [module for module in modules if name in vars(module)]
        assert homes, name
        assert all(getattr(compcount, name) is vars(module)[name] for module in homes), name
    names = {}
    exec("from compcount import *", names)
    assert set(PUBLIC_NAMES) <= set(names)
    with pytest.raises(AttributeError, match="no_such_name"):
        compcount.no_such_name


def fresh_program() -> dict:
    """A new import of the program's modules, as {name: module}, as the
    benchmark's own fresh_program imports one; earlier imports stay usable."""
    for name in [key for key in sys.modules if key == "compcount" or key.startswith("compcount.")]:
        del sys.modules[name]
    return {name: importlib.import_module(f"compcount.{name}")
            for name in ("cli", "graphcomp", "compositions", "series", "exactnum")}


def test_two_imports_of_the_program_stay_apart(tmp_path, monkeypatch):
    cycle = tmp_path / "c5.txt"
    cycle.write_text(graphcomp.format_edge_list(graphcomp.build_family("cycle", 5)))
    saved = {key: module for key, module in sys.modules.items()
             if key == "compcount" or key.startswith("compcount.")}
    try:
        first, second = fresh_program(), fresh_program()
        second["verify"] = importlib.import_module("compcount.verify")
        reached = set()

        def wrapped(name, function):
            def wrapper(*args, **kwargs):
                reached.add(name)
                return function(*args, **kwargs)
            return wrapper

        for layer in ("graphcomp", "compositions", "series", "verify"):
            for name, value in list(vars(second[layer]).items()):
                if isinstance(value, types.FunctionType):
                    monkeypatch.setattr(second[layer], name, wrapped(f"{layer}.{name}", value))
        outputs = []
        for argv in (["graph", "count", "--file", str(cycle)], ["count", "contain", "--k", "2", "--n", "6"],
                     ["series", "--family", "contain", "--k", "3", "--order", "5"],
                     ["verify", "--suite", "graphs", "--max-n", "1"]):
            out, err = io.StringIO(), io.StringIO()
            assert first["cli"].run(argv, out, err) == 0, err.getvalue()
            outputs.append(out.getvalue())
        assert reached == set()
        assert outputs[:3] == ["27\n", "20\n", "0\n0\n0\n1\n2\n5\n"]
        assert outputs[3].endswith(" checks\n") and "FAIL" not in outputs[3]
        assert sys.modules["compcount.verify"] is second["verify"]
    finally:
        for key in [key for key in sys.modules if key == "compcount" or key.startswith("compcount.")]:
            del sys.modules[key]
        sys.modules.update(saved)
