"""Tests for whole-chip (multi-automaton) automata processing."""

import numpy as np
import pytest

from repro.automata import (
    Alphabet,
    compile_regex,
    homogenize,
    merge_automata,
)
from repro.rram_ap import APChip, SRAM_KERNEL, rram_ap
from repro.workloads import make_ids_workload

AB = Alphabet("ab")


def rules(*patterns):
    return [homogenize(compile_regex(p, AB)) for p in patterns]


class TestMergeAutomata:
    def test_state_ranges_partition(self):
        machines = rules("ab", "a*b", "(ab)+")
        combined, ranges = merge_automata(machines)
        assert combined.n_states == sum(m.n_states for m in machines)
        covered = [s for r in ranges for s in r]
        assert covered == list(range(combined.n_states))

    def test_no_cross_rule_edges(self):
        machines = rules("ab", "ba")
        combined, ranges = merge_automata(machines)
        for src, dst in combined.edges:
            blocks = [k for k, r in enumerate(ranges)
                      if src in r and dst in r]
            assert len(blocks) == 1, (src, dst)

    def test_union_language(self):
        combined, _ = merge_automata(rules("ab", "ba"))
        assert combined.accepts("ab")
        assert combined.accepts("ba")
        assert not combined.accepts("aa")

    def test_alphabet_mismatch_rejected(self):
        a = rules("ab")[0]
        b = homogenize(compile_regex("xy", Alphabet("xy")))
        with pytest.raises(ValueError):
            merge_automata([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_automata([])


class TestAPChip:
    def test_attribution_matches_per_rule_processors(self):
        machines = rules("ab", "ba", "aa")
        chip = APChip(machines)
        rng = np.random.default_rng(7)
        text = "".join(rng.choice(["a", "b"], size=64))
        report = chip.scan(text)
        for k, machine in enumerate(machines):
            individual = rram_ap(machine).find_matches(text)
            assert report.events_for(k) == individual, k

    def test_ids_workload_end_to_end(self):
        workload = make_ids_workload(np.random.default_rng(5), n_rules=9,
                                     payload_length=512, n_attacks=3)
        chip = APChip([homogenize(r.compile()) for r in workload.rules])
        report = chip.scan(workload.payload)
        events = {(e.rule, e.end_position) for e in report.events}
        for rule, offset in workload.planted:
            assert (rule.rule_id, offset + len(rule.example)) in events

    def test_single_pass_cheaper_than_sequential_scans(self):
        """One combined pass vs running the stream once per rule."""
        machines = rules("ab", "ba", "aab", "bba")
        text = "ab" * 32
        chip = APChip(machines)
        combined_cost = chip.scan(text).cost
        sequential = sum(
            rram_ap(m).run(text, unanchored=True)[1].pipelined_time_seconds
            for m in machines
        )
        assert combined_cost.pipelined_time_seconds < sequential

    def test_kernel_selection(self):
        machines = rules("ab")
        rram_chip = APChip(machines)
        sram_chip = APChip(machines, kernel=SRAM_KERNEL)
        assert (rram_chip.chip_cost().symbol_energy()
                < sram_chip.chip_cost().symbol_energy())

    def test_anchored_scan(self):
        chip = APChip(rules("ab"))
        report = chip.scan("ab", unanchored=False)
        assert report.events == tuple(report.events)
        assert report.events_for(0) == (2,)
        assert chip.scan("aab", unanchored=False).events_for(0) == ()

    def test_counts(self):
        chip = APChip(rules("ab", "ba"))
        assert chip.n_rules == 2
        assert chip.n_states == sum(m.n_states for m in rules("ab", "ba"))
