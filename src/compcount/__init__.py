"""Exact counting and enumeration of integer compositions and graph compositions.

Counts are plain Python ints, so every result is exact at any magnitude.
The library pairs each counting formula or recurrence with an independent
brute-force route (explicit enumeration or a separate dynamic program) and
the ``verify`` CLI subcommand cross-checks them.

Importing the package imports none of its modules: each public name, and
each module, is imported on its first use (``__getattr__`` below), so a CLI
command loads only the modules that it reads.
"""

import sys as _sys

# The names that the CLI parser offers as choices, defined here so that it can
# offer them without importing the modules that key their tables by them: the
# cross-check suites of compcount.verify, the graph families of graphcomp,
# the rational series of series, and the triangle kinds of compositions.
VERIFY_SUITES = ("all", "compositions", "series", "graphs")
FAMILIES = ("path", "tree", "complete", "complete_minus_edge", "cycle", "ladder")
_SERIES_FAMILIES = ("fstrict", "fweak", "avoid", "contain")
PARTITIONS_DISTINCT = "partitions-distinct"
COMPOSITIONS_DISTINCT = "compositions-distinct"

# Every other public name, by the module that defines it.
_NAMES = {
    "compositions": ("Composition", "NONNEGATIVE_PARTS", "POSITIVE_PARTS", "PartBounds", "count_avoiding",
                     "count_compositions_distinct", "count_compositions_distinct_total", "count_containing",
                     "count_leading_strict", "count_leading_strict_total", "count_leading_weak",
                     "count_partitions_distinct", "count_restricted", "enumerate_compositions",
                     "fibonacci_higher", "leading_weak_total", "triangle"),
    "errors": ("ResourceLimitError",),
    "exactnum": ("bell", "binomial", "binomial_via_partition_multiplicities", "equal_block_partitions",
                 "exact_div", "factorial", "multinomial", "stirling1", "stirling1_via_compositions",
                 "stirling2", "stirling2_via_compositions"),
    "graphcomp": ("GraphParseError", "LabeledGraph", "build_family", "count_compositions_frontier",
                  "count_compositions_graph", "enumerate_graph_compositions", "family_count",
                  "format_edge_list", "is_connected", "ladder_binet", "parse_edge_list",
                  "random_connected_graph", "random_graph", "random_tree", "reduce_and_count"),
    "series": ("RationalGF", "TruncatedSeries", "family_series", "gf_all_compositions", "gf_avoiding",
               "gf_containing", "gf_distinct_total", "gf_leading_strict", "gf_leading_weak",
               "series_from_rational"),
}
_HOMES = {name: module for module, names in _NAMES.items() for name in names}
_MODULES = ("cli", "compositions", "errors", "exactnum", "graphcomp", "series", "verify")

__all__ = sorted([*_HOMES, "COMPOSITIONS_DISTINCT", "FAMILIES", "PARTITIONS_DISTINCT", "VERIFY_SUITES"])

_package = _sys.modules[__name__]  # this import of the package, which sys.modules may later not hold


def __getattr__(name: str):
    """A module of the package, imported on first use, or a public name from
    its module, kept here once looked up."""
    if name in _MODULES:
        return _import(name)
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(getattr(_package, _HOMES[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


def _import(name: str):
    """Import the package's module `name` into this import of the package.

    Where sys.modules holds another import of the package (a benchmark that
    runs two imports side by side holds both), this import's modules stand
    in for that one's while `name` and the modules it imports load, and that
    one's are put back after; so each import's modules only ever read their
    own."""
    module = f"{__name__}.{name}"
    if _sys.modules.get(__name__) is _package:
        __import__(module)
        return _sys.modules[module]
    theirs = {key: _sys.modules.pop(key) for key in _entries()}
    _sys.modules[__name__] = _package
    for key in _MODULES:
        if key in globals():
            _sys.modules[f"{__name__}.{key}"] = globals()[key]
    try:
        return _import(name)
    finally:
        for key in _entries():
            del _sys.modules[key]
        _sys.modules.update(theirs)


def _entries() -> list[str]:
    """The keys of sys.modules that name the package or one of its modules."""
    return [key for key in _sys.modules if key == __name__ or key.startswith(f"{__name__}.")]
