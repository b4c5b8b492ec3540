"""Tests for the Fig. 9 bit-line column builders and measurement."""

import pytest

from repro.circuits import (
    PTM32,
    build_rram_column,
    build_sram_column,
    measure_discharge,
)
from repro.devices import DeviceParameters

DEV = DeviceParameters()


def rram(bits, selected=None, n=None):
    return build_rram_column(PTM32, DEV, bits, selected=selected)


class TestFunctionalBehaviour:
    def test_hot_cell_trips(self):
        m = measure_discharge(rram([1, 0, 0, 0]), t_stop=2e-9, dt=2e-12)
        assert m.tripped
        assert m.discharge_time_seconds is not None

    def test_all_zero_column_stays_high(self):
        m = measure_discharge(rram([0, 0, 0, 0]), t_stop=2e-9, dt=2e-12)
        assert not m.tripped
        assert m.discharge_time_seconds is None

    def test_unselected_hot_cell_does_not_trip(self):
        """The dot product i . V must be 0 when the hot cell is not selected."""
        m = measure_discharge(rram([1, 0, 0, 0], selected=[1, 2]),
                              t_stop=2e-9, dt=2e-12)
        assert not m.tripped

    def test_sram_column_equivalent_function(self):
        col = build_sram_column(PTM32, [0, 1, 0], selected=[1])
        m = measure_discharge(col, t_stop=2e-9, dt=2e-12)
        assert m.tripped


class TestDischargePhysics:
    def test_more_hot_cells_discharge_faster(self):
        one = measure_discharge(rram([1] + [0] * 31), t_stop=2e-9, dt=1e-12)
        four = measure_discharge(rram([1] * 4 + [0] * 28), t_stop=2e-9,
                                 dt=1e-12)
        assert four.discharge_time_seconds < one.discharge_time_seconds

    def test_longer_column_is_slower(self):
        """More cells -> more bit-line capacitance -> slower discharge."""
        short = measure_discharge(rram([1] + [0] * 15), t_stop=2e-9, dt=1e-12)
        long = measure_discharge(rram([1] + [0] * 127), t_stop=4e-9, dt=1e-12)
        assert long.discharge_time_seconds > short.discharge_time_seconds

    def test_rram_beats_sram_at_256(self):
        """The core Fig. 9 claim, at reduced precision for test speed."""
        bits = [1] + [0] * 255
        m_r = measure_discharge(build_rram_column(PTM32, DEV, bits, selected=[0]),
                                t_stop=1.2e-9, dt=4e-12)
        m_s = measure_discharge(build_sram_column(PTM32, bits, selected=[0]),
                                t_stop=1.2e-9, dt=4e-12)
        assert m_r.discharge_time_seconds < m_s.discharge_time_seconds
        assert m_r.energy_joules < m_s.energy_joules


class TestEnergyModel:
    def test_tripping_energy_is_swing_energy(self):
        col = rram([1, 0, 0, 0])
        m = measure_discharge(col, t_stop=2e-9, dt=2e-12)
        c_bl = 4 * PTM32.c_bitline_per_rram_cell
        expected = c_bl * PTM32.v_precharge * (
            PTM32.v_precharge - PTM32.v_sa_trip
        )
        assert m.energy_joules == pytest.approx(expected, rel=1e-6)

    def test_silent_column_uses_far_less_energy(self):
        hot = measure_discharge(rram([1, 0, 0, 0]), t_stop=2e-9, dt=2e-12)
        silent = measure_discharge(rram([0, 0, 0, 0]), t_stop=2e-9, dt=2e-12)
        assert silent.energy_joules < 0.2 * hot.energy_joules


class TestColumnMetadata:
    def test_kind_labels(self):
        assert rram([0]).kind == "rram"
        assert build_sram_column(PTM32, [0]).kind == "sram"

    def test_cell_count(self):
        assert rram([0, 1, 0]).n_cells == 3
