"""Graph workloads: frontier-based BFS as bulk bitwise operations.

Graph processing (paper ref [21], direction-optimizing BFS) maps onto the
MVP because a BFS frontier expansion is one bulk operation: with the
adjacency matrix stored row-per-vertex in the crossbar, the next frontier
is the scouting-OR of the current frontier's rows, masked by unvisited
vertices.  This module generates graphs, runs a numpy golden BFS, and
lowers BFS levels to MVP programs.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import numpy as np

from repro.mvp.isa import Instruction
from repro.mvp.processor import MVPProcessor

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "random_graph",
    "adjacency_bits",
    "bfs_levels_golden",
    "mvp_bfs",
    "BFSResult",
]


def random_graph(
    rng: np.random.Generator, n_vertices: int, avg_degree: float
) -> nx.DiGraph:
    """A random directed graph with the given expected out-degree."""
    import networkx as nx

    if n_vertices < 2:
        raise ValueError("need at least two vertices")
    p = min(1.0, avg_degree / (n_vertices - 1))
    seed = int(rng.integers(0, 2**31 - 1))
    return nx.gnp_random_graph(n_vertices, p, seed=seed, directed=True)


def adjacency_bits(graph: nx.DiGraph) -> np.ndarray:
    """Row-per-source adjacency bit matrix (row u marks u's successors)."""
    n = graph.number_of_nodes()
    bits = np.zeros((n, n), dtype=np.int8)
    for u, v in graph.edges():
        bits[u, v] = 1
    return bits


def bfs_levels_golden(graph: nx.DiGraph, source: int) -> dict[int, int]:
    """networkx ground truth: vertex -> BFS level."""
    import networkx as nx

    return nx.single_source_shortest_path_length(graph, source)


@dataclasses.dataclass(frozen=True)
class BFSResult:
    """MVP BFS outcome.

    Attributes:
        levels: vertex -> level for reached vertices.
        frontier_sizes: frontier population per level.
        mvp_activations: crossbar activations the traversal used.
    """

    levels: dict[int, int]
    frontier_sizes: tuple[int, ...]
    mvp_activations: int


def mvp_bfs(
    processor: MVPProcessor,
    adjacency: np.ndarray,
    source: int,
    max_levels: int | None = None,
) -> BFSResult:
    """Frontier BFS where every expansion is one multi-row scouting OR.

    The adjacency matrix is loaded once (row per vertex); each level
    activates the frontier's rows simultaneously -- one crossbar
    activation expands the whole frontier -- and the host masks out
    visited vertices.

    Args:
        processor: an MVP with at least n_vertices + 1 usable rows.
        adjacency: (n, n) 0/1 matrix.
        source: start vertex.
        max_levels: optional safety bound.

    Returns:
        The :class:`BFSResult`; levels match
        :func:`bfs_levels_golden` (see tests).
    """
    n = adjacency.shape[0]
    if adjacency.shape != (n, n):
        raise ValueError("adjacency must be square")
    if processor.usable_rows < n:
        raise ValueError(
            f"crossbar too small: {processor.usable_rows} usable rows "
            f"< {n} vertices"
        )
    if not 0 <= source < n:
        raise ValueError("source out of range")
    load = [Instruction.vload(u, adjacency[u]) for u in range(n)]
    processor.execute(load)

    activations_before = processor.stats.activations
    visited = np.zeros(n, dtype=bool)
    visited[source] = True
    levels = {source: 0}
    frontier = [source]
    sizes = [1]
    level = 0
    while frontier:
        if max_levels is not None and level >= max_levels:
            break
        processor.execute([Instruction.vor(*frontier)])
        reached = processor.result.astype(bool)
        new = reached & ~visited
        frontier = [int(v) for v in np.nonzero(new)[0]]
        level += 1
        for v in frontier:
            levels[v] = level
        visited |= new
        if frontier:
            sizes.append(len(frontier))
    return BFSResult(
        levels=levels,
        frontier_sizes=tuple(sizes),
        mvp_activations=processor.stats.activations - activations_before,
    )
