"""MVP application benches: the workloads Section III-B names.

Database management (bitmap indices), DNA/string processing and graph
traversal -- each lowered to MVP macro-instructions and cross-checked
against golden results, with the in-memory operation count reported.
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.crossbar import Crossbar
from repro.mvp import MVPProcessor
from repro.workloads import (
    BitmapIndex,
    adjacency_bits,
    bfs_levels_golden,
    mvp_bfs,
    random_graph,
    random_query,
    random_table,
)


def test_bitmap_query_bench(benchmark, save_report):
    """Time a 3-term CNF query over a 4096-row bitmap index on the MVP."""
    rng = np.random.default_rng(83)
    table = random_table(rng, 4096, [8, 6, 4])
    index = BitmapIndex(table)
    query = random_query(rng, [8, 6, 4], n_terms=3)
    program, rows = index.to_mvp_program(query)

    def run_query():
        mvp = MVPProcessor(Crossbar(rows + 1, 4096))
        return mvp.execute(program)[-1], mvp.stats

    (count, stats) = benchmark(run_query)
    assert count == index.count(query)

    text = format_table(
        ["metric", "value"],
        [
            ("rows in table", 4096),
            ("query terms", 3),
            ("matching rows", count),
            ("MVP activations", stats.activations),
            ("bit operations in-memory", stats.bit_operations),
            ("MVP energy (pJ)", stats.energy_joules * 1e12),
        ],
        title="MVP bitmap-index query (FastBit-style, ref [17])",
    )
    save_report("mvp_bitmap_query", text)


def test_graph_bfs_bench(benchmark, save_report):
    """Time BFS over a 256-vertex graph: one activation per level."""
    rng = np.random.default_rng(89)
    graph = random_graph(rng, 256, avg_degree=4.0)
    adjacency = adjacency_bits(graph)

    def run_bfs():
        mvp = MVPProcessor(Crossbar(257, 256))
        return mvp_bfs(mvp, adjacency, source=0)

    result = benchmark.pedantic(run_bfs, rounds=2, iterations=1)
    assert result.levels == bfs_levels_golden(graph, 0)

    text = format_table(
        ["metric", "value"],
        [
            ("vertices", 256),
            ("reached", len(result.levels)),
            ("BFS levels", max(result.levels.values())),
            ("frontier expansions (activations)", result.mvp_activations),
        ],
        title="MVP frontier BFS (direction-optimizing BFS setting, "
              "ref [21])",
    )
    save_report("mvp_graph_bfs", text)


def test_mvp_vs_cpu_op_count(benchmark, save_report):
    """The data-movement argument of Section III-B: count hierarchy ops a
    CPU needs versus MVP activations for the same bitmap query."""
    rng = np.random.default_rng(97)
    table = random_table(rng, 8192, [8, 8])
    index = BitmapIndex(table)
    query = random_query(rng, [8, 8], n_terms=2, max_disjuncts=3)
    program, rows = index.to_mvp_program(query)

    def run():
        mvp = MVPProcessor(Crossbar(rows + 1, 8192))
        mvp.execute(program)
        return mvp.stats

    stats = benchmark.pedantic(run, rounds=2, iterations=1)
    # A word-at-a-time CPU reads every bitmap word through the hierarchy:
    # words = bitmaps * rows / 64 per scan, several scans per query.
    bitmaps = sum(len(t) for t in query.terms)
    cpu_word_loads = bitmaps * 8192 // 64
    assert stats.activations <= 6  # handful of in-memory activations
    assert cpu_word_loads > 100 * stats.activations

    text = format_table(
        ["path", "memory-system operations"],
        [
            ("CPU (64-bit words through caches)", cpu_word_loads),
            ("MVP (activated multi-row reads)", stats.activations),
        ],
        title="Data movement: CPU word loads vs MVP activations "
              "(one bitmap query, 8192 rows)",
    )
    save_report("mvp_vs_cpu_ops", text)
