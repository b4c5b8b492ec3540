"""DAC/ADC conversion stages and the executed analog pipeline."""

import numpy as np
import pytest

from repro.crossbar.nonideal import NonidealitySpec
from repro.devices.base import DeviceParameters
from repro.mvm import (
    ADCModel,
    AnalogAccelerator,
    AnalogMVM,
    MVMConfig,
    bit_slices,
    quantize_input,
)


class TestDAC:
    def test_slices_reconstruct_quantized_vector(self):
        x = np.random.default_rng(0).random(17) * 3.0
        x_int, scale = quantize_input(x, bits=5)
        slices = bit_slices(x_int, bits=5)
        rebuilt = sum(
            (1 << s) * slices[s].astype(np.int64) for s in range(5)
        )
        assert np.array_equal(rebuilt, x_int)
        assert np.abs(x_int * scale - x).max() <= scale / 2 + 1e-12

    def test_one_bit_dac_degenerates_to_a_single_threshold_slice(self):
        x = np.array([0.0, 0.2, 0.6, 1.0])
        x_int, scale = quantize_input(x, bits=1)
        assert scale == 1.0
        assert x_int.tolist() == [0, 0, 1, 1]  # rint thresholds near 1/2
        slices = bit_slices(x_int, bits=1)
        assert slices.shape == (1, 4)
        assert slices[0].tolist() == [False, False, True, True]

    def test_all_zero_vector_has_zero_scale(self):
        x_int, scale = quantize_input(np.zeros(6), bits=4)
        assert scale == 0.0
        assert not x_int.any()

    def test_rejects_negative_inputs_and_bad_shapes(self):
        with pytest.raises(ValueError, match="non-negative"):
            quantize_input(np.array([0.5, -0.1]), bits=4)
        with pytest.raises(ValueError, match="1-D"):
            quantize_input(np.zeros((2, 2)), bits=4)
        with pytest.raises(ValueError, match="dac bits"):
            quantize_input(np.zeros(2), bits=0)


class TestADC:
    def test_exact_counts_below_range(self):
        adc = ADCModel(bits=6, lsb_current_amps=1e-6, leak_current_amps=1e-11)
        counts = np.array([0, 1, 17, 63])
        currents = counts * 1e-6 + 5 * 1e-11  # 5 active rows of leak
        codes, saturated = adc.convert(currents, active_rows=5)
        assert codes.tolist() == counts.tolist()
        assert saturated == 0

    def test_clipping_counts_saturations(self):
        adc = ADCModel(bits=3, lsb_current_amps=1e-6)
        currents = np.array([2.0, 7.0, 7.4, 8.0, 30.0]) * 1e-6
        codes, saturated = adc.convert(currents, active_rows=0)
        assert codes.tolist() == [2, 7, 7, 7, 7]
        assert saturated == 2   # 8 and 30 exceed the 3-bit ceiling

    def test_baseline_subtraction_clamps_at_zero(self):
        adc = ADCModel(bits=4, lsb_current_amps=1e-6, leak_current_amps=1e-7)
        codes, saturated = adc.convert(np.array([0.0]), active_rows=8)
        assert codes.tolist() == [0]
        assert saturated == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="adc bits"):
            ADCModel(bits=0, lsb_current_amps=1e-6)
        with pytest.raises(ValueError, match="lsb"):
            ADCModel(bits=4, lsb_current_amps=0.0)


class TestAnalogMVM:
    def test_ideal_fabric_matches_reference_bit_for_bit(self):
        rng = np.random.default_rng(1)
        weights = rng.normal(0, 1, size=(6, 14))
        mvm = AnalogMVM(weights, MVMConfig(weight_bits=5, dac_bits=6,
                                           adc_bits=7, tile_rows=8,
                                           tile_cols=4))
        for _ in range(5):
            x = rng.random(14)
            assert np.array_equal(mvm.matvec(x),
                                  mvm.reference_matvec(x))

    def test_ideal_output_close_to_float_product(self):
        rng = np.random.default_rng(2)
        weights = rng.normal(0, 1, size=(5, 12))
        x = rng.random(12)
        mvm = AnalogMVM(weights, MVMConfig(weight_bits=8, dac_bits=8,
                                           adc_bits=7, tile_rows=8,
                                           tile_cols=8))
        y = mvm.matvec(x)
        golden = weights @ x
        # Quantization-error bound: weight rounding costs <= scale/2
        # per matrix entry, DAC rounding <= x_scale/2 per input entry.
        scales = [tile.scale for _, _, tile in mvm.tiles]
        _, x_scale = np.rint(x / (x.max() / 255)), x.max() / 255
        bound = (max(scales) / 2) * np.abs(x).sum() \
            + (x_scale / 2) * np.abs(weights).sum(axis=1).max() \
            + max(scales) * x_scale * weights.shape[1]
        assert np.abs(y - golden).max() <= bound

    def test_wide_adc_run_never_saturates_narrow_adc_does(self):
        weights = np.ones((2, 30))
        x = np.ones(30)
        wide = AnalogMVM(weights, MVMConfig(weight_bits=1, dac_bits=1,
                                            adc_bits=6, tile_rows=32,
                                            tile_cols=8))
        narrow = AnalogMVM(weights, MVMConfig(weight_bits=1, dac_bits=1,
                                              adc_bits=3, tile_rows=32,
                                              tile_cols=8))
        y_wide = wide.matvec(x)
        y_narrow = narrow.matvec(x)
        assert wide.adc_saturations == 0
        assert y_wide == pytest.approx(np.full(2, 30.0), rel=1e-3)
        assert narrow.adc_saturations > 0
        assert (y_narrow < y_wide).all()   # clipping loses magnitude
        assert narrow.tile_saturations[0] == narrow.adc_saturations

    def test_empty_slices_cost_no_reads(self):
        mvm = AnalogMVM(np.ones((2, 4)), MVMConfig(dac_bits=4))
        y = mvm.matvec(np.zeros(4))
        assert np.array_equal(y, np.zeros(2))
        assert mvm.reads == 0
        assert mvm.energy_joules == 0.0
        # The control timeline still cycles through the DAC slices.
        assert mvm.latency_seconds > 0

    def test_cost_ledger_accounts_reads_and_energy(self):
        mvm = AnalogMVM(np.ones((3, 4)),
                        MVMConfig(weight_bits=2, dac_bits=2,
                                  tile_rows=8, tile_cols=8))
        x = np.array([1.0, 2.0, 3.0, 3.0])
        mvm.matvec(x)
        # 2 slices, both non-empty, one tile -> 2 reads over 12 cols.
        assert mvm.reads == 2
        assert mvm.adc_conversions == 2 * 3 * 4
        assert mvm.energy_joules == pytest.approx(
            2 * mvm.energy_model.operation_energy(12))
        assert mvm.latency_seconds == pytest.approx(
            2 * mvm.energy_model.latency_seconds)

    def test_window_debias_keeps_small_window_devices_accurate(self):
        """A 17x resistance window (Stanford-like) still recovers the
        float product because reference and fabric share the same
        leakage model and debias gain."""
        params = DeviceParameters(r_on=1e3, r_off=17e3)
        weights = np.abs(np.random.default_rng(3).normal(
            1, 0.3, size=(3, 20)))
        x = np.random.default_rng(4).random(20)
        mvm = AnalogMVM(weights, MVMConfig(weight_bits=7, dac_bits=8,
                                           adc_bits=8, tile_rows=32,
                                           tile_cols=8), params=params)
        y = mvm.matvec(x)
        assert np.array_equal(y, mvm.reference_matvec(x))
        assert y == pytest.approx(weights @ x, rel=0.05)

    def test_half_tie_windows_still_match_reference(self):
        """A 2x window lands ideal codes exactly on rint half-ties
        (n * (1 - r_on/r_off) = n/2); the reference must share the
        fabric's float path so both round identically."""
        rng = np.random.default_rng(6)
        weights = rng.normal(0, 1, size=(4, 16))
        for r_off_factor in (2.0, 4.0):
            params = DeviceParameters(r_on=1e4, r_off=r_off_factor * 1e4)
            mvm = AnalogMVM(
                weights, MVMConfig(weight_bits=5, dac_bits=5,
                                   adc_bits=8, tile_rows=8,
                                   tile_cols=8), params=params)
            for _ in range(5):
                x = rng.random(16)
                assert np.array_equal(mvm.matvec(x),
                                      mvm.reference_matvec(x))

    def test_input_length_validated(self):
        mvm = AnalogMVM(np.ones((2, 4)), MVMConfig())
        with pytest.raises(ValueError, match="input vector"):
            mvm.matvec(np.ones(5))


class TestSaturationSemantics:
    """ADC saturation accounting is strictly per conversion.

    A conversion that clips counts exactly once however far over range
    it lands, inactive reads convert nothing, and the per-tile split
    always reconciles with the whole-fabric counter.
    """

    @staticmethod
    def _saturating_mvm(dac_bits: int = 4) -> AnalogMVM:
        # All-ones weights quantize both positive planes to 1, so with
        # 24 active unit rows against a 2-bit ADC (ceiling 3) every
        # positive-plane conversion clips and no negative-plane one
        # does.
        return AnalogMVM(np.ones((4, 24)),
                         MVMConfig(weight_bits=2, dac_bits=dac_bits,
                                   adc_bits=2, tile_rows=32,
                                   tile_cols=8))

    def test_tile_split_reconciles_with_totals(self):
        mvm = self._saturating_mvm()
        mvm.matvec(np.ones(24))
        assert mvm.adc_saturations > 0
        assert sum(mvm.tile_saturations) == mvm.adc_saturations
        assert mvm.adc_saturations <= mvm.adc_conversions
        # 4 slices x 16 physical columns; the 8 positive-plane columns
        # clip once per conversion each, 30x over range or not.
        assert mvm.adc_conversions == 64
        assert mvm.adc_saturations == 32

    def test_repeated_matvecs_add_identical_increments(self):
        mvm = self._saturating_mvm()
        x = np.linspace(0.1, 1.0, 24)
        mvm.matvec(x)
        first = (mvm.reads, mvm.adc_conversions, mvm.adc_saturations,
                 list(mvm.tile_saturations))
        mvm.matvec(x)
        assert mvm.reads == 2 * first[0]
        assert mvm.adc_conversions == 2 * first[1]
        assert mvm.adc_saturations == 2 * first[2]
        assert mvm.tile_saturations == [2 * s for s in first[3]]

    def test_one_bit_dac_counts_each_clipped_conversion_once(self):
        # The degenerate single-threshold DAC: one slice, one read,
        # every physical column converted exactly once.
        mvm = self._saturating_mvm(dac_bits=1)
        y = mvm.matvec(np.ones(24))
        assert mvm.reads == 1
        assert mvm.adc_conversions == 16
        assert mvm.adc_saturations == 8
        assert sum(mvm.tile_saturations) == mvm.adc_saturations
        assert np.array_equal(y, mvm.reference_matvec(np.ones(24)))


class TestAnalogAccelerator:
    def test_layers_share_one_ledger(self):
        rng = np.random.default_rng(5)
        acc = AnalogAccelerator(
            [rng.normal(0, 1, size=(4, 6)),
             rng.normal(0, 1, size=(3, 4))],
            MVMConfig(tile_rows=8, tile_cols=8),
        )
        h = np.maximum(acc.matvec(0, rng.random(6)), 0.0)
        acc.matvec(1, h)
        assert acc.reads == sum(layer.reads for layer in acc.layers)
        assert acc.energy_joules == pytest.approx(
            sum(layer.energy_joules for layer in acc.layers))
        assert len(acc.crossbars) == 2
        assert acc.nonideal_crossbars == []

    def test_reference_matvec_leaves_ledger_untouched(self):
        acc = AnalogAccelerator([np.ones((2, 3))], MVMConfig())
        acc.reference_matvec(0, np.ones(3))
        assert acc.reads == 0
        assert acc.energy_joules == 0.0
        assert acc.latency_seconds == 0.0

    def test_nonideal_layers_surface_their_fabrics(self):
        acc = AnalogAccelerator(
            [np.ones((2, 3))], MVMConfig(),
            nonideality=NonidealitySpec(fault_rate=0.2),
            rng=np.random.default_rng(0),
        )
        assert len(acc.nonideal_crossbars) == 1

    def test_needs_at_least_one_layer(self):
        with pytest.raises(ValueError, match="at least one layer"):
            AnalogAccelerator([], MVMConfig())
