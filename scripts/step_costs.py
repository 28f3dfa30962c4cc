"""Measure the time of a subset-DP step and of a frontier-DP bound step, in
the word steps of compcount's work budget.

graphcomp prices its two block counters through errors.check_work: the
subset DP at SUBSET_STEP_OPERATIONS operations for each of its 3^n/2 steps,
the frontier DP at FRONTIER_STEP_COST subset steps for each step of its
pricing bound (graphcomp._frontier_price). This script times both loops
with the guard switched off, divides by those step counts, and prints the
cost of a step in nanoseconds and in word steps next to the price. Word
steps are converted at --ns-per-word-step, the speed the budget assumes
(errors.py).

    PYTHONPATH=src python3 scripts/step_costs.py [--repeat 3]

Standard library only; the package does not import this script.
"""

import argparse
import math
import time
from random import Random

from compcount import errors, graphcomp


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
    """The largest biconnected block of the graph, relabelled 0..n-1."""
    block = max(graphcomp._blocks(graph), key=len)
    vertices = sorted({v for edge in block for v in edge})
    index = {v: i for i, v in enumerate(vertices)}
    return graphcomp.LabeledGraph(len(vertices), {(index[u], index[v]) for u, v in block})


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=3, help="runs per graph; the best counts")
    parser.add_argument("--ns-per-word-step", type=float, default=4.0)
    args = parser.parse_args()
    word_ns = args.ns_per_word_step
    graphcomp.check_work = lambda *_, **__: None  # time the loops, not the guard

    print("subset DP on K_n minus a Hamiltonian cycle, per step of 3^n/2")
    print(f"{'n':>4} {'steps':>10} {'seconds':>9} {'ns/step':>8} {'word steps':>10} {'priced':>7}")
    for n in range(12, 16):
        nbr = complete_minus_cycle(n).neighbor_masks()
        steps = 3 ** n / 2
        seconds = best_time(lambda: graphcomp._subset_ways(nbr, n), args.repeat)
        words = n * math.log2(n + 1) / 64 + 1
        priced = graphcomp.SUBSET_STEP_OPERATIONS * (errors.OP_STEPS + words)
        ns = seconds / steps * 1e9
        print(f"{n:>4} {steps:>10.3g} {seconds:>9.3f} {ns:>8.1f} {ns / word_ns:>10.1f} {priced:>7.1f}")

    graphs = [(f"cycle {n}", graphcomp.build_family("cycle", n)) for n in (200, 2000, 10000)]
    graphs += [(f"ladder {r}", graphcomp.build_family("ladder", r)) for r in (50, 200)]
    graphs += [(f"grid {r}x{c}", grid(r, c)) for r, c in ((4, 30), (5, 20), (6, 12))]
    for n, p, seed in ((24, 0.1, 1), (24, 0.15, 0), (28, 0.1, 2)):
        graphs.append((f"block of random {n}/{p} seed {seed}",
                       largest_block(graphcomp.random_connected_graph(Random(seed), n, p))))
    priced = graphcomp.FRONTIER_STEP_COST * graphcomp.SUBSET_STEP_OPERATIONS * (errors.OP_STEPS + 1)
    print(f"\nfrontier DP, per step of its bound (priced at {priced:.0f} word steps)")
    print(f"{'graph':<32} {'n':>5} {'states':>7} {'bound steps':>11} {'seconds':>9} "
          f"{'us/step':>8} {'word steps':>10}")
    for name, graph in graphs:
        adj = graph.adjacency()
        order, widths = graphcomp._frontier_order(adj)
        steps, states = graphcomp._frontier_price(widths)
        seconds = best_time(lambda: graphcomp._count_frontier(adj, order, widths), args.repeat)
        us = seconds / steps * 1e6
        print(f"{name:<32} {graph.vertex_count:>5} {states:>7.3g} {steps:>11.3g} {seconds:>9.3f} "
              f"{us:>8.2f} {us * 1e3 / word_ns:>10.0f}")


if __name__ == "__main__":
    main()
