"""Tests for bitmap-index, graph-BFS and string-matching workloads."""

import numpy as np
import pytest

from repro.crossbar import Crossbar
from repro.mvp import MVPProcessor
from repro.workloads import (
    BitmapIndex,
    MultiPatternMatcher,
    Query,
    ShiftAndMatcher,
    adjacency_bits,
    bfs_levels_golden,
    mvp_bfs,
    random_graph,
    random_query,
    random_table,
)


class TestBitmapIndex:
    def setup_method(self):
        self.rng = np.random.default_rng(3)
        self.table = random_table(self.rng, 64, [4, 3, 5])
        self.index = BitmapIndex(self.table)

    def test_bitmaps_partition_rows(self):
        for col, card in [(0, 4), (1, 3), (2, 5)]:
            total = sum(
                self.index.bitmap(col, v).sum() for v in range(card)
            )
            assert total == 64

    def test_evaluate_matches_pandas_style_golden(self):
        query = Query(terms=(((0, 1), (0, 2)), ((1, 0),)))
        golden = (
            ((self.table[:, 0] == 1) | (self.table[:, 0] == 2))
            & (self.table[:, 1] == 0)
        )
        np.testing.assert_array_equal(self.index.evaluate(query), golden)

    def test_mvp_program_counts_match_golden(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            query = random_query(rng, [4, 3, 5])
            program, rows_used = self.index.to_mvp_program(query)
            mvp = MVPProcessor(Crossbar(rows_used + 1, 64))
            outputs = mvp.execute(program)
            assert outputs[-1] == self.index.count(query)

    def test_query_validation(self):
        with pytest.raises(ValueError):
            Query(terms=())
        with pytest.raises(ValueError):
            Query(terms=((),))

    def test_missing_value_bitmap_is_empty(self):
        assert self.index.bitmap(0, 99).sum() == 0

    @pytest.mark.parametrize("column", [-1, 3])
    def test_bitmap_rejects_columns_the_table_lacks(self, column):
        with pytest.raises(IndexError, match="column"):
            self.index.bitmap(column, 0)


class TestGraphBFS:
    def test_mvp_bfs_matches_networkx(self):
        rng = np.random.default_rng(11)
        graph = random_graph(rng, 48, avg_degree=3.0)
        adjacency = adjacency_bits(graph)
        mvp = MVPProcessor(Crossbar(49, 48))
        result = mvp_bfs(mvp, adjacency, source=0)
        assert result.levels == bfs_levels_golden(graph, 0)

    def test_one_activation_per_level(self):
        rng = np.random.default_rng(13)
        graph = random_graph(rng, 32, avg_degree=2.5)
        adjacency = adjacency_bits(graph)
        mvp = MVPProcessor(Crossbar(33, 32))
        result = mvp_bfs(mvp, adjacency, source=0)
        # One scouting OR per expanded level (frontier_sizes includes L0).
        assert result.mvp_activations == len(result.frontier_sizes)

    def test_crossbar_size_validated(self):
        rng = np.random.default_rng(0)
        graph = random_graph(rng, 16, avg_degree=2.0)
        mvp = MVPProcessor(Crossbar(8, 16))
        with pytest.raises(ValueError, match="too small"):
            mvp_bfs(mvp, adjacency_bits(graph), 0)

    def test_max_levels_bound(self):
        rng = np.random.default_rng(1)
        graph = random_graph(rng, 24, avg_degree=2.0)
        mvp = MVPProcessor(Crossbar(25, 24))
        result = mvp_bfs(mvp, adjacency_bits(graph), 0, max_levels=1)
        assert max(result.levels.values()) <= 1


class TestShiftAnd:
    def test_matches_str_find(self):
        matcher = ShiftAndMatcher("abab")
        text = "abababab"
        expected = tuple(
            i + 4 for i in range(len(text) - 3)
            if text[i:i + 4] == "abab"
        )
        assert matcher.find(text).end_positions == expected

    def test_no_match(self):
        assert ShiftAndMatcher("zzz").count("aaaa") == 0

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            ShiftAndMatcher("")

    def test_multi_pattern_total(self):
        mp = MultiPatternMatcher(["ab", "ba"])
        assert mp.total_matches("abab") == 3  # ab@2, ab@4, ba@3
        assert mp.state_bits == 4

    def test_agreement_with_automata_path(self):
        """Shift-And and the NFA path must find identical occurrences."""
        from repro.automata import Alphabet, compile_regex

        alphabet = Alphabet("ab")
        rng = np.random.default_rng(5)
        text = "".join(rng.choice(["a", "b"], size=200))
        for pattern in ["ab", "aba", "bbab"]:
            sa = ShiftAndMatcher(pattern).find(text).end_positions
            nfa = compile_regex(pattern, alphabet)
            ap = nfa.simulate(text, unanchored=True).match_ends
            assert sa == ap
