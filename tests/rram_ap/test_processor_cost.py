"""Tests for the automata processor, baselines and cost models."""

import numpy as np
import pytest

from repro.automata import (
    Alphabet,
    compile_automaton,
    compile_regex,
    homogenize,
)
from repro.rram_ap import (
    APChipCost,
    AutomataProcessor,
    RRAM_KERNEL,
    SDRAM_KERNEL,
    SRAM_KERNEL,
    all_implementations,
    kernel_cost_from_circuit,
    rram_ap,
    sram_ap,
)
from repro.rram_ap.ste_array import inject_ste_faults

AB = Alphabet("ab")


def automaton(pattern="(a|b)*abb"):
    return homogenize(compile_regex(pattern, AB))


class TestKernelRecords:
    def test_paper_fig9_numbers(self):
        assert RRAM_KERNEL.delay_seconds == pytest.approx(104e-12)
        assert SRAM_KERNEL.delay_seconds == pytest.approx(161e-12)
        assert RRAM_KERNEL.energy_per_column_joules == pytest.approx(2.09e-15)
        assert SRAM_KERNEL.energy_per_column_joules == pytest.approx(5.16e-15)

    def test_paper_reductions(self):
        delay_cut = 1 - RRAM_KERNEL.delay_seconds / SRAM_KERNEL.delay_seconds
        energy_cut = 1 - (RRAM_KERNEL.energy_per_column_joules
                          / SRAM_KERNEL.energy_per_column_joules)
        assert delay_cut == pytest.approx(0.35, abs=0.02)
        assert energy_cut == pytest.approx(0.59, abs=0.02)

    def test_rram_denser_and_nonvolatile(self):
        assert RRAM_KERNEL.cell_area_f2 < SDRAM_KERNEL.cell_area_f2
        assert RRAM_KERNEL.cell_area_f2 < SRAM_KERNEL.cell_area_f2
        assert not RRAM_KERNEL.volatile
        assert SRAM_KERNEL.volatile

    def test_rram_config_slower(self):
        """The paper's stated drawback: long, power-hungry programming."""
        assert RRAM_KERNEL.config_write_time_seconds > SRAM_KERNEL.config_write_time_seconds
        assert (RRAM_KERNEL.config_write_energy_joules
                > SRAM_KERNEL.config_write_energy_joules)

    def test_kernel_cost_from_circuit_tracks_paper(self):
        rram = kernel_cost_from_circuit("rram", n_cells=256, dt=2e-12)
        assert rram.delay_seconds == pytest.approx(104e-12, rel=0.1)
        assert rram.energy_per_column_joules == pytest.approx(2.09e-15, rel=0.1)

    def test_kernel_kind_validated(self):
        with pytest.raises(ValueError):
            kernel_cost_from_circuit("dram")


class TestChipCost:
    def setup_method(self):
        self.cost = APChipCost(
            kernel=RRAM_KERNEL, n_states=100, wordlines=256,
            routing_columns=120, routing_stages=2,
        )

    def test_symbol_latency_counts_stages(self):
        assert self.cost.symbol_latency() == pytest.approx(
            3 * RRAM_KERNEL.delay_seconds
        )

    def test_symbol_energy_sums_arrays(self):
        expected = (100 + 120) * RRAM_KERNEL.energy_per_column_joules
        assert self.cost.symbol_energy() == pytest.approx(expected)

    def test_throughput_is_pipelined(self):
        assert self.cost.throughput_symbols_per_second() == pytest.approx(
            1 / RRAM_KERNEL.delay_seconds
        )

    def test_area_scales_with_cell(self):
        sram = APChipCost(kernel=SRAM_KERNEL, n_states=100, wordlines=256,
                          routing_columns=120, routing_stages=2)
        ratio = sram.area_mm2() / self.cost.area_mm2()
        assert ratio == pytest.approx(250.0 / 12.0)


class TestProcessorFunctional:
    def test_all_implementations_agree(self):
        ha = automaton()
        rng = np.random.default_rng(11)
        procs = all_implementations(ha)
        for _ in range(10):
            text = "".join(rng.choice(["a", "b"], size=12))
            outcomes = {
                name: proc.run(text)[0].accepted
                for name, proc in procs.items()
            }
            assert len(set(outcomes.values())) == 1, outcomes

    def test_matches_nfa(self):
        nfa = compile_regex("a(ba)*b", AB)
        proc = rram_ap(homogenize(nfa))
        for text in ["ab", "abab", "ababab", "aab", "", "ba"]:
            assert proc.run(text)[0].accepted == nfa.accepts(text)

    def test_crossbar_backend_agrees_with_matrix(self):
        ha = automaton("ab*a")
        matrix_proc = rram_ap(ha, backend="matrix")
        xbar_proc = rram_ap(ha, backend="crossbar")
        rng = np.random.default_rng(5)
        for _ in range(10):
            text = "".join(rng.choice(["a", "b"], size=8))
            assert (matrix_proc.run(text)[0].accepted
                    == xbar_proc.run(text)[0].accepted)

    def test_two_level_routing_agrees(self):
        ha = automaton()
        full = rram_ap(ha, routing_style="full")
        hier = rram_ap(ha, routing_style="two-level", block_size=4)
        for text in ["abb", "aabb", "ababb", "bbbb"]:
            assert (full.run(text)[0].accepted
                    == hier.run(text)[0].accepted)

    def test_find_matches_unanchored(self):
        proc = rram_ap(automaton("abb"))
        assert proc.find_matches("xabbyabb".replace("x", "a")
                                 .replace("y", "a")) == (4, 8)

    def test_processors_own_their_configuration(self):
        """Fault injection corrupts a processor's STE matrix in place; the
        automaton and a second processor configured from it must not see
        it."""
        patterns = ["ab+a", "(a|b)*abb", "b{2,4}"]
        ha = compile_automaton(patterns, AB)
        ste, routing = ha.ste_matrix(), ha.routing_matrix()
        first, second = rram_ap(ha), rram_ap(ha)
        text = "aabbbabbab"
        before = second.run(text)[0]
        inject_ste_faults(first.ste_matrix, first.ste_matrix.size,
                          np.random.default_rng(0), stuck_at_one_fraction=1.0)
        first.routing.routing[:] = True
        assert first.ste_matrix.all()
        np.testing.assert_array_equal(ha.ste_matrix(), ste)
        np.testing.assert_array_equal(ha.routing_matrix(), routing)
        np.testing.assert_array_equal(second.ste_matrix, ste)
        np.testing.assert_array_equal(second.routing.routing, routing)
        after = second.run(text)[0]
        np.testing.assert_array_equal(after.active, before.active)
        with pytest.raises(ValueError):
            ha._ste[0, 0] = True

    def test_invalid_options(self):
        ha = automaton()
        with pytest.raises(ValueError):
            AutomataProcessor(ha, routing_style="mesh")
        with pytest.raises(ValueError):
            AutomataProcessor(ha, backend="fpga")


class TestProcessorCosts:
    def test_rram_beats_sram_on_energy_and_delay(self):
        ha = automaton()
        _, cost_r = rram_ap(ha).run("abab" * 16)
        _, cost_s = sram_ap(ha).run("abab" * 16)
        assert cost_r.energy_joules < cost_s.energy_joules
        assert cost_r.latency_seconds < cost_s.latency_seconds

    def test_cost_scales_with_input_length(self):
        proc = rram_ap(automaton())
        _, short = proc.run("ab" * 8)
        _, long = proc.run("ab" * 32)
        assert long.energy_joules == pytest.approx(4 * short.energy_joules)
        assert long.symbols == 4 * short.symbols

    def test_config_cost_tradeoff(self):
        """RRAM configures slower but holds state without power."""
        ha = automaton()
        chip_r = rram_ap(ha).chip_cost()
        chip_s = sram_ap(ha).chip_cost()
        assert chip_r.config_time() > chip_s.config_time()
        assert chip_r.area_mm2() < chip_s.area_mm2()
