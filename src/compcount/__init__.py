"""Exact counting and enumeration of integer compositions and graph compositions.

Counts are plain Python ints, so every result is exact at any magnitude.
The library pairs each counting formula or recurrence with an independent
brute-force route (explicit enumeration or a separate dynamic program) and
the ``verify`` CLI subcommand cross-checks them.
"""

from types import ModuleType as _ModuleType

from .compositions import (
    COMPOSITIONS_DISTINCT,
    NONNEGATIVE_PARTS,
    PARTITIONS_DISTINCT,
    POSITIVE_PARTS,
    Composition,
    PartBounds,
    count_avoiding,
    count_compositions_distinct,
    count_compositions_distinct_total,
    count_containing,
    count_leading_strict,
    count_leading_strict_total,
    count_leading_weak,
    count_partitions_distinct,
    count_restricted,
    enumerate_compositions,
    fibonacci_higher,
    leading_weak_total,
    triangle,
)
from .errors import ResourceLimitError
from .exactnum import (
    bell,
    binomial,
    binomial_via_partition_multiplicities,
    equal_block_partitions,
    exact_div,
    factorial,
    multinomial,
    stirling1,
    stirling1_via_compositions,
    stirling2,
    stirling2_via_compositions,
)
from .graphcomp import (
    FAMILIES,
    GraphParseError,
    LabeledGraph,
    build_family,
    count_compositions_frontier,
    count_compositions_graph,
    enumerate_graph_compositions,
    family_count,
    format_edge_list,
    is_connected,
    ladder_binet,
    parse_edge_list,
    random_connected_graph,
    random_graph,
    random_tree,
    reduce_and_count,
)
from .series import (
    RationalGF,
    TruncatedSeries,
    family_series,
    gf_all_compositions,
    gf_avoiding,
    gf_containing,
    gf_distinct_total,
    gf_leading_strict,
    gf_leading_weak,
    series_from_rational,
)

# The cross-check suites of ``compcount.verify``, defined here so that the
# CLI parser can offer them without importing that module.
VERIFY_SUITES = ("all", "compositions", "series", "graphs")

# Every public name imported above, so that each is listed once.
__all__ = sorted(name for name, value in list(globals().items())
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
