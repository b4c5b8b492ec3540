"""Tests for the MVP functional processor."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crossbar import Crossbar
from repro.devices import DeviceParameters
from repro.mvp import Instruction, MVPProcessor


def make_processor(rows=8, cols=8):
    return MVPProcessor(Crossbar(rows, cols, params=DeviceParameters()))


class TestBasicExecution:
    def test_load_and_read_roundtrip(self):
        p = make_processor()
        out = p.execute([
            Instruction.vload(0, [1, 0, 1, 1, 0, 0, 0, 1]),
            Instruction.vread(0),
        ])
        np.testing.assert_array_equal(out[0], [1, 0, 1, 1, 0, 0, 0, 1])

    def test_or_and_xor_against_numpy(self):
        a = np.array([0, 0, 1, 1, 0, 1, 0, 1])
        b = np.array([0, 1, 0, 1, 1, 1, 0, 0])
        p = make_processor()
        p.execute([Instruction.vload(0, a), Instruction.vload(1, b)])
        p.execute([Instruction.vor(0, 1)])
        np.testing.assert_array_equal(p.result, a | b)
        p.execute([Instruction.vand(0, 1)])
        np.testing.assert_array_equal(p.result, a & b)
        p.execute([Instruction.vxor(0, 1)])
        np.testing.assert_array_equal(p.result, a ^ b)

    def test_vnot_uses_reserved_ones_row(self):
        a = np.array([1, 0, 1, 0, 0, 1, 1, 0])
        p = make_processor()
        p.execute([Instruction.vload(0, a), Instruction.vnot(0)])
        np.testing.assert_array_equal(p.result, 1 - a)

    def test_vstore_writes_back(self):
        p = make_processor()
        p.execute([
            Instruction.vload(0, [1, 1, 0, 0, 1, 1, 0, 0]),
            Instruction.vload(1, [1, 0, 1, 0, 1, 0, 1, 0]),
            Instruction.vand(0, 1),
            Instruction.vstore(2),
            Instruction.vread(2),
        ])
        expected = np.array([1, 0, 0, 0, 1, 0, 0, 0])
        np.testing.assert_array_equal(p.crossbar.stored_word(2), expected)

    def test_popcount(self):
        p = make_processor()
        out = p.execute([
            Instruction.vload(0, [1, 0, 1, 1, 0, 0, 0, 1]),
            Instruction.vor(0),
            Instruction.popcount(),
        ])
        assert out == [4]

    def test_program_using_reserved_row_rejected(self):
        p = make_processor(rows=4)
        with pytest.raises(ValueError):
            p.execute([Instruction.vread(3)])  # row 3 is the ones row

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            MVPProcessor(Crossbar(1, 4))

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_random_programs_match_numpy(self, data):
        """Property: any OR/AND tree over loaded rows matches numpy."""
        cols = 16
        n_rows = 4
        words = [
            np.array(data.draw(st.lists(st.integers(0, 1), min_size=cols,
                                        max_size=cols)))
            for _ in range(n_rows)
        ]
        p = make_processor(rows=8, cols=cols)
        p.execute([Instruction.vload(i, w) for i, w in enumerate(words)])
        subset = data.draw(st.sets(st.integers(0, n_rows - 1), min_size=1,
                                   max_size=n_rows))
        rows = sorted(subset)
        p.execute([Instruction.vor(*rows)])
        np.testing.assert_array_equal(
            p.result, np.bitwise_or.reduce([words[r] for r in rows])
        )
        p.execute([Instruction.vand(*rows)])
        np.testing.assert_array_equal(
            p.result, np.bitwise_and.reduce([words[r] for r in rows])
        )


class TestCostAccounting:
    def test_activations_counted(self):
        p = make_processor()
        p.execute([
            Instruction.vload(0, [1] * 8),
            Instruction.vload(1, [0] * 8),
            Instruction.vor(0, 1),
            Instruction.vxor(0, 1),
        ])
        assert p.stats.activations == 2
        assert p.stats.instructions == 4

    def test_energy_and_time_accumulate(self):
        p = make_processor()
        p.execute([Instruction.vload(0, [1] * 8)])
        after_load = p.stats.energy_joules
        assert after_load > 0
        p.execute([Instruction.vor(0)])
        assert p.stats.energy_joules > after_load
        assert p.stats.time_seconds > 0

    def test_bit_operations_scale_with_columns(self):
        p = make_processor(cols=8)
        p.execute([Instruction.vload(0, [1] * 8), Instruction.vor(0)])
        assert p.stats.bit_operations == 8

    def test_stats_merge(self):
        p = make_processor()
        p.execute([Instruction.vload(0, [1] * 8)])
        merged = p.stats.merged_with(p.stats)
        assert merged.instructions == 2 * p.stats.instructions
        assert merged.energy_joules == pytest.approx(2 * p.stats.energy_joules)
