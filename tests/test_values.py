"""Value semantics of the four frozen value classes: LabeledGraph, PartBounds,
TruncatedSeries and RationalGF compare, hash, print, pickle and copy by their
fields, refuse assignment, and check their fields when built."""

import copy
import io
import pickle
import re

import pytest

from compcount import cli
from compcount.compositions import PartBounds
from compcount.graphcomp import LabeledGraph
from compcount.series import RationalGF, TruncatedSeries

# a value; the same value built from keywords and other iterables; a value
# built from defaults or a shortcut, and the same built in full; the repr of
# the first; arguments that are refused, with the message
CASES = {
    "LabeledGraph": (
        LabeledGraph(3, {(1, 0), (2, 1)}), LabeledGraph(vertex_count=3, edges=[(0, 1), (2, 1), (1, 2)]),
        LabeledGraph(2), LabeledGraph(2, frozenset()),
        "LabeledGraph(vertex_count=3, edges=frozenset({(0, 1), (1, 2)}))",
        [((-1,), "vertex count must be nonnegative"), ((2, {(1, 1)}), "loop edge (1, 1) is not allowed"),
         ((2, {(0, 2)}), "edge (0, 2) has an endpoint outside 0..1")]),
    "PartBounds": (
        PartBounds(1, 4), PartBounds(upper=4, lower=1), PartBounds(), PartBounds(0, None),
        "PartBounds(lower=1, upper=4)",
        [((-1,), "lower part bound must be nonnegative"), ((3, 1), "upper part bound is below the lower bound")]),
    "TruncatedSeries": (
        TruncatedSeries([1, 2, 3]), TruncatedSeries(coefficients=iter((1, 2, 3))),
        TruncatedSeries.zero(2), TruncatedSeries((0, 0, 0)),
        "TruncatedSeries(coefficients=(1, 2, 3))",
        [(((),), "a truncated series needs at least the z^0 coefficient")]),
    "RationalGF": (
        RationalGF([1], [1, -1, -1]), RationalGF(denominator=(1, -1, -1), numerator=(1,)),
        RationalGF((1,), (1, -1)) * RationalGF((1,), (1, 1)), RationalGF((1,), (1, 0, -1)),
        "RationalGF(numerator=(1,), denominator=(1, -1, -1))",
        [(((1,), ()), "denominator needs a nonzero constant term"),
         (((1,), (0, 1)), "denominator needs a nonzero constant term")]),
}


@pytest.mark.parametrize("name", CASES)
def test_values_compare_hash_print_copy_and_refuse_by_their_fields(name):
    value, same, short, full, text, refused = CASES[name]
    names = re.findall(r"(\w+)=", text)
    fields = tuple(getattr(value, field) for field in names)
    assert type(value).__name__ == name
    assert value == same and hash(value) == hash(same) and not value != same
    assert short == full and hash(short) == hash(full) and value != short
    assert repr(value) == repr(same) == text
    # another type never equals a value, even one with the same fields
    assert value != fields and fields != value
    assert all(value != other[0] for key, other in CASES.items() if key != name)
    assert value.__eq__(fields) is NotImplemented
    for field in [*names, "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert repr(value) == text
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is type(value) and clone == value and hash(clone) == hash(value)
        assert repr(clone) == text
    for args, message in refused:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            type(value)(*args)


def test_the_cli_reports_bounds_out_of_order_as_before():
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(["count", "restricted", "--n", "5", "--k", "2", "--min", "3", "--max", "1"], out, err)
    assert (code, out.getvalue(), err.getvalue()) == (1, "", "error: upper part bound is below the lower bound\n")
