"""Per-layer tracing for the traced benchmark run.

``Tracer.install`` replaces the public functions named in LAYERS on their
modules with wrappers that record a span per call. The program looks these
functions up on their modules at call time, so nested calls are traced too:
``reduce_and_count`` calling ``count_compositions_graph``, ``family_count``
calling ``exactnum.bell``. Untraced runs never call ``install``.

Spans stay in memory, as (name, start, end, parent, query) tuples, until the
run writes them out.
"""

import time
from collections import Counter
from typing import NamedTuple

# Layer (module of compcount) -> public functions wrapped in a traced run.
LAYERS = {
    "cli": ("run",),
    "graphcomp": ("parse_edge_list", "reduce_and_count", "count_compositions_graph",
                  "family_count", "ladder_binet"),
    "compositions": ("count_compositions_distinct_total", "count_compositions_distinct",
                     "count_leading_strict_total", "leading_weak_total", "count_avoiding",
                     "count_containing", "count_restricted", "triangle"),
    "series": ("series_from_rational", "gf_distinct_total"),
    "exactnum": ("bell",),
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span
    query: int


def _count_edges(counts: Counter, args, result) -> None:
    counts["graphcomp.parse_edge_list.edges"] += len(result.edges)


def _count_states(counts: Counter, args, result) -> None:
    n = args[0].vertex_count
    counts["graphcomp.count_compositions_graph.states_computed"] += 1 << n
    if n > counts["graphcomp.count_compositions_graph.max_vertices"]:
        counts["graphcomp.count_compositions_graph.max_vertices"] = n


def _count_coefficients(counts: Counter, args, result) -> None:
    counts["series.series_from_rational.coefficients"] += len(result.coefficients)


# Work counters recorded from the arguments and result of a traced call.
COUNTERS = {
    "graphcomp.parse_edge_list": _count_edges,
    "graphcomp.count_compositions_graph": _count_states,
    "series.series_from_rational": _count_coefficients,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.query = -1
        self._open: list[int] = []

    def install(self, modules: dict) -> None:
        """Wrap every LAYERS function on the given {layer: module} mapping."""
        for layer, names in LAYERS.items():
            for name in names:
                module = modules[layer]
                setattr(module, name, self._wrap(f"{layer}.{name}", getattr(module, name)))

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append(None)
            self._open.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index] = Span(name, start, end, parent, self.query)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.end - span.start - covered)
    return result


def inclusive_times(spans: list[Span]) -> Counter:
    """Per name, the summed duration of its outermost spans: a span inside
    another span of the same name is already counted by that one."""
    totals: Counter = Counter()
    for span in spans:
        parent = span.parent
        while parent is not None and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent is None:
            totals[span.name] += span.end - span.start
    return totals


def layer_metrics(spans: list[Span], counts: Counter) -> dict[str, float]:
    """The traced run's per-layer metrics, except those the run loop owns
    (cli.output_bytes, cli.nonzero_exits, exactnum.bell.cache_entries,
    trace.overhead_frac)."""
    inclusive = inclusive_times(spans)
    own = Counter()
    calls = Counter()
    for span, self_s in zip(spans, self_times(spans)):
        own[span.name] += self_s
        calls[span.name] += 1
    metrics = {
        "cli.self_s": own["cli.run"],
        "graphcomp.parse_edge_list.s": inclusive["graphcomp.parse_edge_list"],
        "graphcomp.parse_edge_list.edges": counts["graphcomp.parse_edge_list.edges"],
        "graphcomp.reduce_and_count.self_s": own["graphcomp.reduce_and_count"],
        "graphcomp.count_compositions_graph.s": inclusive["graphcomp.count_compositions_graph"],
        "graphcomp.count_compositions_graph.calls": calls["graphcomp.count_compositions_graph"],
        "graphcomp.count_compositions_graph.max_vertices":
            counts["graphcomp.count_compositions_graph.max_vertices"],
        "graphcomp.count_compositions_graph.states_computed":
            counts["graphcomp.count_compositions_graph.states_computed"],
        "graphcomp.family_count.s": inclusive["graphcomp.family_count"],
        "graphcomp.ladder_binet.s": inclusive["graphcomp.ladder_binet"],
    }
    for name in LAYERS["compositions"]:
        metrics[f"compositions.{name}.s"] = inclusive[f"compositions.{name}"]
        metrics[f"compositions.{name}.calls"] = calls[f"compositions.{name}"]
    metrics["series.series_from_rational.s"] = inclusive["series.series_from_rational"]
    metrics["series.series_from_rational.coefficients"] = \
        counts["series.series_from_rational.coefficients"]
    metrics["series.gf_distinct_total.s"] = inclusive["series.gf_distinct_total"]
    metrics["exactnum.bell.s"] = inclusive["exactnum.bell"]
    return metrics
