"""Breadth-first search with in-memory frontier expansion on the MVP.

Graph processing (paper ref [21]): store the adjacency matrix row-per-
vertex in the crossbar; expanding a BFS frontier is then ONE multi-row
scouting OR, whatever the frontier size -- the bottom-up trick of
direction-optimizing BFS performed by the memory itself.

Run:  python examples/graph_bfs.py
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.crossbar import Crossbar
from repro.mvp import MVPProcessor
from repro.workloads import (
    adjacency_bits,
    bfs_levels_golden,
    mvp_bfs,
    random_graph,
)

N_VERTICES = 512
AVG_DEGREE = 6.0


def main() -> None:
    rng = np.random.default_rng(5)
    graph = random_graph(rng, N_VERTICES, AVG_DEGREE)
    adjacency = adjacency_bits(graph)
    print(f"graph: {N_VERTICES} vertices, {graph.number_of_edges()} edges\n")

    mvp = MVPProcessor(Crossbar(N_VERTICES + 1, N_VERTICES))
    result = mvp_bfs(mvp, adjacency, source=0)
    golden = bfs_levels_golden(graph, 0)
    assert result.levels == golden, "MVP BFS diverged from networkx"

    rows = [
        (level, size)
        for level, size in enumerate(result.frontier_sizes)
    ]
    print(format_table(
        ["BFS level", "frontier size"],
        rows,
        title="Frontier sizes (one crossbar activation per level)",
    ))
    print(f"\nreached {len(result.levels)}/{N_VERTICES} vertices in "
          f"{max(result.levels.values())} levels")
    print(f"crossbar activations: {result.mvp_activations} "
          f"(vs {graph.number_of_edges()} edge traversals a CPU performs)")
    print(f"in-memory energy estimate: {mvp.stats.energy_joules * 1e9:.2f} nJ")


if __name__ == "__main__":
    main()
