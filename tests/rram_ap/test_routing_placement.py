"""Tests for routing fabrics and placement.

The routing classes hold the matrix and price it; Eq. 2 itself runs in
the one stepping kernel, ``batched_matrix_steps``.  The Follow-vector
checks below step that kernel once from a chosen Active Vector with
every STE bit set, so the step's result is the Follow Vector, and
compare it with the per-symbol oracle (the ``scalar_ap`` fixture).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.automata import Alphabet, compile_regex, homogenize
from repro.automata.generic_ap import GenericAPModel, batched_matrix_steps
from repro.rram_ap import (
    AutomataProcessor,
    FullCrossbarRouting,
    TwoLevelRouting,
    bfs_blocks,
    place,
    refine_blocks,
)
from repro.rram_ap import routing as routing_module
from repro.rram_ap.cost import APChipCost
from repro.rram_ap.processor import RunCost

AB = Alphabet("ab")
#: The placement corpus: each pattern at block sizes 2-5.
PLACEMENT_PATTERNS = [
    "(a|b)*abb", "a(a|b)*b", "abab", "(ab)*a",
    "(a|b)*a(a|b)(a|b)", "(a|b)*abb(ab)*", "(a|b)*abb(a|b)*ab",
]
#: One symbol whose STE row is all ones: a step is Eq. 2 alone.
ONE = Alphabet("x")


def example_automaton(pattern="(a|b)*abb"):
    return homogenize(compile_regex(pattern, AB))


def kernel_follow(routing, active):
    """The Follow Vector of ``active``: one kernel step, every STE bit set."""
    n = routing.shape[0]
    actives, _ = batched_matrix_steps(
        active, routing, np.ones((1, n), dtype=bool),
        np.zeros(n, dtype=bool), np.zeros((1, 1), dtype=np.int64),
        np.ones(1, dtype=np.int64))
    return actives[0, 1]


def oracle_follow(scalar_ap, routing, active):
    """The same step through the per-symbol oracle's matrix OR."""
    n = routing.shape[0]
    model = GenericAPModel(ONE, ste=np.ones((1, n), dtype=bool),
                           routing=routing, start=active,
                           accept=np.zeros(n, dtype=bool))
    return scalar_ap.run(model, "x").active[1]


class TestFullCrossbarRouting:
    def test_step_matches_matrix_or(self, scalar_ap):
        r = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=bool)
        routing = FullCrossbarRouting(r)
        a = np.array([1, 0, 1], dtype=bool)
        expected = (a[:, None] & r).any(axis=0)
        np.testing.assert_array_equal(
            kernel_follow(routing.routing, a), expected)
        np.testing.assert_array_equal(
            oracle_follow(scalar_ap, routing.routing, a), expected)

    def test_costs(self):
        routing = FullCrossbarRouting(np.zeros((5, 5), dtype=bool))
        assert routing.columns_per_step() == 5
        assert routing.configurable_bits() == 25
        assert routing.stages == 1

    def test_square_validation(self):
        with pytest.raises(ValueError):
            FullCrossbarRouting(np.zeros((3, 4), dtype=bool))


class TestTwoLevelRouting:
    def make(self, pattern="(a|b)*abb", block_size=3, budget=8):
        ha = example_automaton(pattern)
        blocks = place(ha, block_size)
        return ha, TwoLevelRouting(ha.routing_matrix(), blocks,
                                   port_budget=budget)

    def test_step_equals_full_crossbar(self, scalar_ap):
        """The kernel over a two-level fabric's matrix steps as the
        oracle does over the full crossbar's."""
        ha, two_level = self.make()
        full = FullCrossbarRouting(ha.routing_matrix())
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.integers(0, 2, ha.n_states).astype(bool)
            np.testing.assert_array_equal(
                kernel_follow(two_level.routing, a),
                oracle_follow(scalar_ap, full.routing, a),
            )

    def test_edge_partition_accounting(self):
        ha, two_level = self.make()
        total = int(ha.routing_matrix().sum())
        assert (two_level.intra_block_edges()
                + two_level.inter_block_edges()) == total

    def test_routable_with_generous_budget(self):
        _, two_level = self.make(budget=64)
        assert two_level.check_routable().routable

    def test_unroutable_with_budget_one(self):
        """A dense automaton cannot fit one global port per block."""
        ha = example_automaton("(a|b)*a(a|b)(a|b)(a|b)")
        blocks = bfs_blocks(ha, 2)
        two_level = TwoLevelRouting(ha.routing_matrix(), blocks,
                                    port_budget=1)
        assert not two_level.check_routable().routable
        with pytest.raises(RuntimeError, match="not routable"):
            two_level.ensure_routable()

    def test_pairs_are_found_once_for_every_run(self, scalar_ap,
                                                monkeypatch):
        """The routing and blocks never change after construction, so
        five ``run_batch`` calls find the inter-block pairs once, and
        traces and costs still equal the oracle's."""
        calls = []
        real = routing_module._inter_block_pairs

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(routing_module, "_inter_block_pairs", counting)
        ha = example_automaton("(a|b)*abb(a|b)*ab")
        proc = AutomataProcessor(ha, routing_style="two-level",
                                 block_size=3, port_budget=64)
        block_of = {s: b for b, members in enumerate(proc.routing.blocks)
                    for s in members}
        src, dst = np.nonzero(ha.routing_matrix())
        pairs = {(block_of[s], block_of[d])
                 for s, d in zip(src.tolist(), dst.tolist())
                 if block_of[s] != block_of[d]}
        assert pairs and proc.routing.block_pairs() == pairs
        chip = APChipCost(kernel=proc.kernel, n_states=ha.n_states,
                          wordlines=AB.wordline_count,
                          routing_columns=ha.n_states + len(pairs),
                          routing_stages=2)
        model = scalar_ap.model_of(proc)
        seqs = ["abbab", "ab", "", "babbaabab"]
        for _ in range(5):
            traces, costs = proc.run_batch(seqs, unanchored=True)
            for seq, trace, cost in zip(seqs, traces, costs):
                want = scalar_ap.run(model, seq, unanchored=True)
                np.testing.assert_array_equal(trace.active, want.active)
                assert trace.accepted == want.accepted
                n = len(seq)
                assert cost == RunCost(
                    symbols=n,
                    latency_seconds=n * chip.symbol_latency(),
                    pipelined_time_seconds=n * proc.kernel.delay_seconds,
                    energy_joules=n * chip.symbol_energy(),
                )
        assert len(calls) == 1

    def test_routing_and_blocks_are_read_only_copies(self):
        ha = example_automaton()
        matrix = ha.routing_matrix()
        blocks = place(ha, 3)
        two_level = TwoLevelRouting(matrix, blocks)
        matrix[:] = False
        blocks[0].append(99)
        assert two_level.routing.any()
        assert 99 not in two_level.blocks[0]
        with pytest.raises(ValueError):
            two_level.routing[0, 0] = True

    def test_partition_validation(self):
        r = np.zeros((4, 4), dtype=bool)
        with pytest.raises(ValueError):
            TwoLevelRouting(r, [[0, 1], [2]])  # missing state 3
        with pytest.raises(ValueError):
            TwoLevelRouting(r, [[0, 1], [2, 3]], port_budget=0)

    def test_fewer_configurable_bits_than_full(self):
        ha = example_automaton("(a|b)*abb(a|b)*ab")
        blocks = place(ha, 4)
        two_level = TwoLevelRouting(ha.routing_matrix(), blocks)
        full = FullCrossbarRouting(ha.routing_matrix())
        if ha.n_states >= 16:
            assert (two_level.configurable_bits()
                    < full.configurable_bits())


class TestPlacement:
    def test_bfs_blocks_partition(self):
        ha = example_automaton()
        blocks = bfs_blocks(ha, 3)
        flat = sorted(s for b in blocks for s in b)
        assert flat == list(range(ha.n_states))
        assert all(len(b) <= 3 for b in blocks)

    def test_block_size_validation(self):
        with pytest.raises(ValueError):
            bfs_blocks(example_automaton(), 0)

    def test_refinement_never_increases_cut_pairs(self):
        ha = example_automaton("(a|b)*abb(ab)*")
        routing = ha.routing_matrix()

        def pair_count(blocks):
            block_of = {}
            for b, members in enumerate(blocks):
                for s in members:
                    block_of[s] = b
            src, dst = np.nonzero(routing)
            return len({
                (block_of[int(s)], block_of[int(d)])
                for s, d in zip(src, dst)
                if block_of[int(s)] != block_of[int(d)]
            })

        initial = bfs_blocks(ha, 3)
        refined = refine_blocks(ha, initial)
        assert pair_count(refined) <= pair_count(initial)

    def test_refinement_preserves_partition(self):
        ha = example_automaton("(a|b)*abb(ab)*")
        refined = refine_blocks(ha, bfs_blocks(ha, 3))
        flat = sorted(s for b in refined for s in b)
        assert flat == list(range(ha.n_states))

    def test_kept_swap_moves_the_scanned_state(self, scalar_ap):
        """Regression: after a kept swap the refinement scanned on with
        the state it had just moved out of the block, so a later swap
        wrote state 12 into two slots and dropped state 6, and a
        two-level processor over that placement refused to build."""
        ha = example_automaton("a(a|b)*b")
        blocks = place(ha, 2)
        flat = sorted(s for b in blocks for s in b)
        assert flat == list(range(ha.n_states))
        proc = AutomataProcessor(ha, routing_style="two-level",
                                 block_size=2, port_budget=64)
        model = scalar_ap.model_of(proc)
        traces, _ = proc.run_batch(["abab", "aab"])
        for seq, trace in zip(["abab", "aab"], traces):
            np.testing.assert_array_equal(
                trace.active, scalar_ap.run(model, seq).active)

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(PLACEMENT_PATTERNS),
        st.integers(min_value=2, max_value=5),
    )
    def test_place_returns_exact_partition(self, pattern, block_size):
        ha = example_automaton(pattern)
        blocks = place(ha, block_size)
        flat = sorted(s for b in blocks for s in b)
        assert flat == list(range(ha.n_states))
        assert [len(b) for b in blocks] == [
            len(b) for b in bfs_blocks(ha, block_size)]

    @pytest.mark.parametrize("block_size", [2, 3, 4, 5])
    @pytest.mark.parametrize("pattern", PLACEMENT_PATTERNS)
    def test_refinement_equals_the_rescanning_oracle(
            self, scan_refine, pattern, block_size):
        """Incremental pair counts accept and reject exactly the swaps a
        full recount per trial does, over the whole placement corpus."""
        ha = example_automaton(pattern)
        initial = bfs_blocks(ha, block_size)
        assert refine_blocks(ha, initial) == \
            scan_refine.refine_blocks(ha, initial)
        assert refine_blocks(ha, initial, max_passes=1) == \
            scan_refine.refine_blocks(ha, initial, max_passes=1)
