"""Measure the steps that graphcomp prices its three block counters by, in
the word steps of compcount's work budget, and the blocks that routing on
the two DPs' prices sends to the slower DP.

The subset DP (graphcomp._subset_ways, which
graphcomp.count_compositions_graph prices before it runs) keeps the price of
the per-cube kernel it replaced, graphcomp._subset_charge: SUBSET_STEP_OPERATIONS
operations a direct step and TRANSFORM_STEP_OPERATIONS a transform step of
that kernel. This script times the ranked table at 8-16 vertices against
that price, on K_n minus a Hamiltonian cycle, which has no universal vertex:
the whole-set count that count_compositions_graph takes, and the whole table.
The frontier DP is priced at FRONTIER_STEP_PRICE word steps and one addition
of its counts a step of its state bound (graphcomp._frontier_price, in
graphcomp._frontier_charge), timed here with its successor memo cold and
warm. The series-parallel reductions (graphcomp._series_parallel) are
priced at SERIES_PARALLEL_OPERATIONS operations for each of at most n + m
reductions, on numbers of graphcomp._count_bits (graphcomp._reductions_charge);
this script times them on cycles, ladders and random 2-trees against that
price. graphcomp._count_block, the one router of a block, runs them first
where they are priced lowest, sends each block they do not count to the DP
of the lower price, and returns the route it took.
This script times the counters with the work and memory budgets
(errors.WORK_BUDGET, errors.MEMORY_BUDGET) set to infinity, so that the
guard admits every run. It prints the subset DP's time next to its
priced time, the cost of a frontier or reduction step in word steps next
to its price, times both DPs on small blocks
(the benchmark's pinned dense blocks among them) under the labels of
graphcomp._blocks, on which graphcomp.reduce_and_count routes and counts
them, and lists those that the prices send to the slower counter with the
slowdown of each. With the budgets restored, it checks the guard on a
100,000-vertex cycle, which is counted, and a 370,000-vertex one, which is
refused before its frontier order is built. Word steps are
converted at --ns-per-word-step, the speed the budget assumes (errors.py).

    PYTHONPATH=src python3 scripts/step_costs.py [--repeat 3]

Standard library only; the package does not import this script.
"""

import argparse
import json
import math
import time
from pathlib import Path
from random import Random

from compcount import errors, graphcomp, verify


def best_time(run, repeat):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def complete_minus_cycle(n):
    return graphcomp.LabeledGraph(n, {(u, v) for u in range(n) for v in range(u + 2, n)
                                      if (u, v) != (0, n - 1)})


def grid(rows, columns):
    across = {(v, v + 1) for v in range(rows * columns) if v % columns != columns - 1}
    down = {(v, v + columns) for v in range((rows - 1) * columns)}
    return graphcomp.LabeledGraph(rows * columns, across | down)


def largest_block(graph):
    """(n, edges) of a biconnected block of the graph with the most
    vertices, as graphcomp._blocks labels it and reduce_and_count routes it."""
    return max(graphcomp._blocks(graph))


def subset_steps(word_ns, repeat):
    """The ranked table on K_n minus a Hamiltonian cycle against its price,
    for the whole-set count and for the whole table."""
    print(f"subset DP on K_n minus a Hamiltonian cycle against its price, graphcomp._subset_charge "
          f"({graphcomp.SUBSET_STEP_OPERATIONS} operations a direct step, "
          f"{graphcomp.TRANSFORM_STEP_OPERATIONS} a transform step)")
    print(f"{'n':>4} {'rank bits':>9} {'count s':>9} {'table s':>9} {'priced s':>9} "
          f"{'priced/count':>12} {'priced/table':>12}")
    for n in range(8, 17):
        graph = complete_minus_cycle(n)
        nbr = graph.neighbor_masks()
        runs = repeat if n < 15 else 1
        count = best_time(lambda: graphcomp.count_compositions_graph(graph), runs)
        table = best_time(lambda: graphcomp._subset_ways(nbr, n), runs)
        priced = errors.word_steps(*graphcomp._subset_charge(n)[1:3]) * word_ns / 1e9
        print(f"{n:>4} {graphcomp._field_bits(n):>9} {count:>9.4f} {table:>9.4f} {priced:>9.4f} "
              f"{priced / count:>12.2f} {priced / table:>12.2f}")


def cold_frontier(adj, order):
    """The frontier DP as a block new to it runs: its successor memo cleared."""
    graphcomp._successors.cache_clear()
    return graphcomp._count_frontier(adj, order)


def frontier_steps(word_ns, repeat):
    graphs = [(f"cycle {n}", graphcomp.build_family("cycle", n)) for n in (6, 13, 200, 2000, 10000)]
    graphs += [(f"ladder {r}", graphcomp.build_family("ladder", r)) for r in (6, 50, 200)]
    graphs += [(f"grid {r}x{c}", grid(r, c)) for r, c in ((4, 4), (4, 30), (5, 20), (6, 12))]
    for n, p, seed in ((24, 0.1, 1), (24, 0.15, 0), (28, 0.1, 2)):
        graphs.append((f"block of random {n}/{p} seed {seed}",
                       graphcomp.LabeledGraph(*largest_block(
                           graphcomp.random_connected_graph(Random(seed), n, p)))))
    print(f"\nfrontier DP, per step of its pricing bound (priced at {graphcomp.FRONTIER_STEP_PRICE} "
          f"word steps and one addition), with its successor memo cleared before each run (cold) "
          f"and left as the last run left it (warm)")
    print(f"{'graph':<32} {'n':>5} {'width':>5} {'steps':>9} {'cold s':>8} {'warm s':>8} "
          f"{'cold word steps':>15} {'warm word steps':>15} {'priced':>7}")
    for name, graph in graphs:
        adj = graph.adjacency()
        order, widths = graphcomp._frontier_order(adj)
        steps, states = graphcomp._frontier_price(widths)
        cold_seconds = best_time(lambda: cold_frontier(adj, order), repeat)
        warm_seconds = best_time(lambda: graphcomp._count_frontier(adj, order), repeat)
        priced = errors.word_steps(*graphcomp._frontier_charge(graph.vertex_count, len(graph.edges),
                                                               steps, states)[1:3]) / steps
        cold_steps, warm_steps = (s / steps * 1e9 / word_ns for s in (cold_seconds, warm_seconds))
        print(f"{name:<32} {graph.vertex_count:>5} {max(widths):>5} {steps:>9.3g} {cold_seconds:>8.4f} "
              f"{warm_seconds:>8.4f} {cold_steps:>15.0f} {warm_steps:>15.0f} {priced:>7.0f}")


def series_parallel_steps(word_ns, repeat):
    graphs = [(f"cycle {n}", graphcomp.build_family("cycle", n)) for n in (12, 1000, 10000, 100000)]
    graphs += [(f"ladder {r}", graphcomp.build_family("ladder", r)) for r in (6, 500, 5000, 40000)]
    graphs += [(f"random 2-tree {n}", verify._partial_two_tree(Random(n), n, keep=1))
               for n in (12, 1000, 10000, 100000)]
    print(f"\nseries-parallel reductions (priced at {graphcomp.SERIES_PARALLEL_OPERATIONS} operations a "
          f"reduction, n + m of them, on numbers of min(m, n log2(n + 1)) bits)")
    print(f"{'graph':<22} {'n':>7} {'seconds':>9} {'priced s':>9} {'price/time':>10}")
    for name, graph in graphs:
        n, edges = max(graphcomp._blocks(graph))
        seconds = best_time(lambda: graphcomp._series_parallel(n, edges), repeat if n < 20000 else 1)
        priced = errors.word_steps(*graphcomp._reductions_charge(n, len(edges))[1:3]) * word_ns / 1e9
        print(f"{name:<22} {n:>7} {seconds:>9.4f} {priced:>9.4f} {priced / seconds:>10.1f}")


def routing(word_ns, repeat):
    """Time both DPs on the small blocks that the series-parallel reductions
    do not count, where routing decides (the frontier DP with its memo
    cleared, as a block new to it), and list the blocks that
    graphcomp._count_block sends to the slower DP, with the slowdown of
    each."""
    graphs = [(f"cycle {n}", graphcomp.build_family("cycle", n)) for n in range(4, 15)]
    graphs += [(f"ladder {r}", graphcomp.build_family("ladder", r)) for r in range(2, 8)]
    rng = Random(7)
    for n in range(6, 17):
        for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
            graphs.append((f"block of random {n}/{p} #{len(graphs)}",
                           graphcomp.random_connected_graph(rng, n, p)))
    pinned = Path(__file__).resolve().parents[1] / "perfbench" / "pinned_dense.json"
    graphs += [(f"pinned {e['n']}/{e['p']}",
                graphcomp.LabeledGraph(e["n"], {tuple(edge) for edge in e["edges"]}))
               for e in json.loads(pinned.read_text())]
    slower, dp_blocks = [], 0
    for name, graph in graphs:
        if not any(graphcomp._blocks(graph)):
            continue  # a tree: no block of 3 or more vertices to route
        n, edges = largest_block(graph)
        errors.forget()  # the route of a block new to the block memo
        route = graphcomp._count_block(n, edges)[1]
        if route == "series-parallel":
            continue  # counted by the reductions, by neither DP
        dp_blocks += 1
        graph = graphcomp.LabeledGraph(n, edges)
        adj = graph.adjacency()
        order, widths = graphcomp._frontier_order(adj)
        steps = graphcomp._frontier_price(widths)[0]
        subset = best_time(lambda: graphcomp.count_compositions_graph(graph), repeat)
        # at 60 word steps or more a bound step, the frontier DP would lose 20-fold: not timed
        frontier = math.inf if steps * 60 * word_ns / 1e9 > 20 * subset else \
            best_time(lambda: cold_frontier(adj, order), repeat)
        frontier_first = route == "frontier"
        routed, other = (frontier, subset) if frontier_first else (subset, frontier)
        if routed > other:
            slower.append((routed / other, name, n, frontier_first, subset, frontier))
    print(f"\nrouting on the {dp_blocks} blocks of 4-16 vertices (cycles, ladders, random, and the "
          f"benchmark's pinned dense blocks) that the series-parallel reductions do not count, by the "
          f"lower price: {len(slower)} on the slower counter")
    for slowdown, name, n, frontier_first, subset, frontier in sorted(slower, reverse=True):
        print(f"    {name} ({n} vertices), {'frontier' if frontier_first else 'subset'} DP, "
              f"{slowdown:.2f}x: subset {subset * 1e3:.2f} ms, frontier {frontier * 1e3:.2f} ms")


def long_cycles():
    print("\nthe guard on long cycles")
    for n in (100_000, 370_000):
        cycle = graphcomp.build_family("cycle", n)
        start = time.perf_counter()
        try:
            graphcomp.reduce_and_count(cycle)
            outcome = "counted"
        except errors.ResourceLimitError as refusal:
            outcome = f"refused: {refusal}"
        print(f"cycle {n}: {outcome} in {time.perf_counter() - start:.2f} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=3, help="runs per graph; the best counts")
    parser.add_argument("--ns-per-word-step", type=float, default=4.0)
    args = parser.parse_args()
    budgets = errors.WORK_BUDGET, errors.MEMORY_BUDGET
    errors.WORK_BUDGET = errors.MEMORY_BUDGET = math.inf
    subset_steps(args.ns_per_word_step, args.repeat)
    frontier_steps(args.ns_per_word_step, args.repeat)
    series_parallel_steps(args.ns_per_word_step, args.repeat)
    routing(args.ns_per_word_step, args.repeat)
    errors.WORK_BUDGET, errors.MEMORY_BUDGET = budgets
    long_cycles()


if __name__ == "__main__":
    main()
