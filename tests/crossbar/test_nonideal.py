"""NonidealCrossbar / NonidealCrossbarStack: composed physics + probes."""

import numpy as np
import pytest

from repro.crossbar import (
    Crossbar,
    NonidealCrossbar,
    NonidealCrossbarStack,
    NonidealitySpec,
    read_back_errors,
    worst_read_margin,
)
from repro.crossbar.nonideal import VERIFY_MARGIN_RATIO
from repro.devices import DeviceParameters

PARAMS = DeviceParameters()


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestConstruction:
    def test_default_spec_matches_ideal_crossbar(self):
        ideal = Crossbar(8, 8, params=PARAMS)
        noni = NonidealCrossbar(8, 8, params=PARAMS)
        np.testing.assert_array_equal(ideal.resistances,
                                      noni.resistances)
        assert noni.fault_campaign.total == 0
        assert noni.wires is None
        assert noni.verify_retries == 0

    def test_stochastic_axes_require_rng(self):
        with pytest.raises(ValueError, match="Generator"):
            NonidealCrossbar(
                8, 8, params=PARAMS,
                nonideality=NonidealitySpec(fault_rate=0.1))

    def test_fault_rate_injects_expected_count(self):
        spec = NonidealitySpec(fault_rate=0.25)
        xb = NonidealCrossbar(8, 8, params=PARAMS, nonideality=spec,
                              rng=_rng())
        assert xb.fault_campaign.total == round(0.25 * 64)

    def test_fault_count_injects_exact_count(self):
        spec = NonidealitySpec(fault_count=5)
        xb = NonidealCrossbar(8, 8, params=PARAMS, nonideality=spec,
                              rng=_rng())
        assert xb.fault_campaign.total == 5

    def test_stuck_cells_resist_writes(self):
        spec = NonidealitySpec(fault_count=10,
                               stuck_at_one_fraction=1.0)
        xb = NonidealCrossbar(8, 8, params=PARAMS, nonideality=spec,
                              rng=_rng())
        xb.load_matrix(np.zeros((8, 8), dtype=int))
        for row, col, stuck in xb.fault_campaign.locations:
            assert xb.bits[row, col] == stuck == 1

    def test_same_rng_state_reproduces_fabric(self):
        spec = NonidealitySpec(fault_rate=0.1, variability_sigma=0.3)
        a = NonidealCrossbar(8, 8, params=PARAMS, nonideality=spec,
                             rng=_rng(7))
        b = NonidealCrossbar(8, 8, params=PARAMS, nonideality=spec,
                             rng=_rng(7))
        np.testing.assert_array_equal(a.resistances, b.resistances)
        assert a.fault_campaign == b.fault_campaign


class TestIRDropReads:
    def test_wire_resistance_reduces_read_currents(self):
        ideal = NonidealCrossbar(8, 8, params=PARAMS)
        wired = NonidealCrossbar(
            8, 8, params=PARAMS,
            nonideality=NonidealitySpec(wire_resistance=5.0))
        bits = np.ones((8, 8), dtype=int)
        ideal.load_matrix(bits)
        wired.load_matrix(bits)
        assert (wired.column_currents([0])
                < ideal.column_currents([0])).all()

    def test_read_row_goes_through_wire_network(self):
        """Severe IR drop flips read-back bits -- the probe sees it."""
        xb = NonidealCrossbar(
            32, 32, params=PARAMS,
            nonideality=NonidealitySpec(wire_resistance=500.0))
        xb.load_matrix(np.ones((32, 32), dtype=int))
        errors, cells = read_back_errors(xb)
        assert cells == 32 * 32
        assert errors > 0

    def test_validation_still_applies(self):
        xb = NonidealCrossbar(
            4, 4, params=PARAMS,
            nonideality=NonidealitySpec(wire_resistance=1.0))
        with pytest.raises(ValueError):
            xb.column_currents([])
        with pytest.raises(IndexError):
            xb.column_currents([9])


class TestWriteVerify:
    def test_clean_writes_use_no_retries(self):
        spec = NonidealitySpec(write_scheme="verify")
        xb = NonidealCrossbar(8, 8, params=PARAMS, nonideality=spec)
        xb.load_matrix(_rng(1).integers(0, 2, (8, 8)))
        assert xb.verify_retries == 0

    def test_heavy_spread_triggers_retries_and_tightens(self):
        spec = NonidealitySpec(variability_sigma=1.2,
                               write_scheme="verify",
                               verify_iterations=12)
        xb = NonidealCrossbar(16, 16, params=PARAMS, nonideality=spec,
                              rng=_rng(3))
        target = _rng(4).integers(0, 2, (16, 16))
        xb.load_matrix(target)
        assert xb.verify_retries > 0
        on = target.astype(bool) & ~xb._stuck_mask
        assert (xb.resistances[on]
                <= PARAMS.r_on * VERIFY_MARGIN_RATIO).all()

    def test_direct_scheme_never_retries(self):
        spec = NonidealitySpec(variability_sigma=1.2)
        xb = NonidealCrossbar(16, 16, params=PARAMS, nonideality=spec,
                              rng=_rng(3))
        xb.load_matrix(_rng(4).integers(0, 2, (16, 16)))
        assert xb.verify_retries == 0

    def test_stuck_cells_do_not_burn_the_budget(self):
        """Stuck cells never verify; the loop must skip, not spin."""
        spec = NonidealitySpec(fault_count=6, write_scheme="verify",
                               stuck_at_one_fraction=0.0)
        xb = NonidealCrossbar(8, 8, params=PARAMS, nonideality=spec,
                              rng=_rng(5))
        xb.load_matrix(np.ones((8, 8), dtype=int))
        assert xb.verify_retries == 0


class TestStackEquivalence:
    def test_stack_items_equal_standalone_crossbars(self):
        """Item b of a stack is bit-identical to a lone nonideal
        crossbar fed the same generator -- the property batched and
        sharded nonideal execution rests on."""
        spec = NonidealitySpec(fault_rate=0.1, variability_sigma=0.4,
                               write_scheme="verify")
        stack = NonidealCrossbarStack(
            8, 8, params=PARAMS, nonideality=spec,
            rngs=[_rng(10), _rng(11), _rng(12)])
        words = _rng(99).integers(0, 2, (3, 8))
        stack.write_row(2, words)
        for b, seed in enumerate((10, 11, 12)):
            solo = NonidealCrossbar(8, 8, params=PARAMS,
                                    nonideality=spec, rng=_rng(seed))
            solo.write_row(2, words[b])
            np.testing.assert_array_equal(stack.items[b].bits, solo.bits)
            np.testing.assert_array_equal(stack.items[b].resistances,
                                          solo.resistances)
            assert stack.items[b].verify_retries == solo.verify_retries

    def test_stack_views_and_reads(self):
        spec = NonidealitySpec(fault_count=2)
        stack = NonidealCrossbarStack(4, 6, params=PARAMS,
                                      nonideality=spec,
                                      rngs=[_rng(0), _rng(1)])
        assert stack.shape == (2, 4, 6)
        assert stack.bits.shape == (2, 4, 6)
        word = np.ones(6, dtype=int)
        stack.write_row(0, word)  # broadcast form
        currents = stack.column_currents([0])
        assert currents.shape == (2, 6)
        assert stack.read_row(0).shape == (2, 6)
        assert stack.stored_word(0).shape == (2, 6)
        assert stack.max_program_cycles() >= 1

    @pytest.mark.parametrize("bad", [2, -1, 256, 257])
    def test_stack_rejects_non_bits_before_the_cast(self, bad):
        stack = NonidealCrossbarStack(4, 4, params=PARAMS,
                                      rngs=[None, None])
        word = np.array([0, 1, 1, bad])
        with pytest.raises(ValueError, match="0 or 1"):
            stack.write_row(0, word)
        with pytest.raises(ValueError, match="0 or 1"):
            stack.write_row(0, np.stack([np.zeros_like(word), word]))
        assert not stack.bits.any()

    def test_stack_rejects_bad_shapes(self):
        stack = NonidealCrossbarStack(4, 4, params=PARAMS,
                                      rngs=[None, None])
        with pytest.raises(ValueError, match="expected"):
            stack.write_row(0, np.ones((3, 4), dtype=int))
        with pytest.raises(ValueError, match="expected shape"):
            stack.load_tensor(np.ones((1, 4, 4), dtype=int))
        with pytest.raises(ValueError):
            NonidealCrossbarStack(4, 4, params=PARAMS, rngs=[])


class TestFidelityProbes:
    def test_ideal_fabric_reads_back_clean(self):
        xb = NonidealCrossbar(8, 8, params=PARAMS)
        xb.load_matrix(_rng(2).integers(0, 2, (8, 8)))
        errors, cells = read_back_errors(xb)
        assert (errors, cells) == (0, 64)
        assert worst_read_margin(xb) > 0

    def test_worst_margin_shrinks_with_wire_resistance(self):
        margins = []
        for r_wire in (0.5, 50.0):
            xb = NonidealCrossbar(
                16, 16, params=PARAMS,
                nonideality=NonidealitySpec(wire_resistance=r_wire))
            xb.load_matrix(np.ones((16, 16), dtype=int))
            margins.append(worst_read_margin(xb))
        assert margins[1] < margins[0]

    def test_margin_sign_flags_flipped_reads(self):
        """If read-back errs, the worst margin must be negative."""
        xb = NonidealCrossbar(
            32, 32, params=PARAMS,
            nonideality=NonidealitySpec(wire_resistance=500.0))
        xb.load_matrix(np.ones((32, 32), dtype=int))
        errors, _ = read_back_errors(xb)
        assert errors > 0
        assert worst_read_margin(xb) < 0
