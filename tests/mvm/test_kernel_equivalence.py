"""Vectorized kernel == legacy scalar pipeline, bit for bit.

The structure-of-arrays kernel in ``repro.mvm.kernel`` promises to be
a pure layout change: on an ideal fabric every output *and every
ledger increment* must equal the original per-slice x per-tile scalar
loop exactly -- not approximately.  This suite transcribes that legacy
loop as an oracle (currents synthesized per read, ADC conversion per
tile, shift-and-add in slice-major tile order, one energy addend per
read) and drives both through hypothesis-generated geometries --
ragged tiles, all-negative columns, zero tiles, 1-bit DAC -- plus the
grouped member-axis execution and ledger twins, asserting bitwise
equality throughout.

Device windows are drawn too, so the digital reference runs in both of
its regimes: the exact integer matvec (every ideal code equals its
ON-cell count) and, outside it, the ideal currents through the ADC.
Either way it must equal the ideal electrical read bit for bit.
"""

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.api.registry import DEVICES
from repro.devices.base import DeviceParameters
from repro.mvm import (
    AnalogAccelerator,
    AnalogAcceleratorGroup,
    AnalogMVM,
    MVMConfig,
    bit_slices,
    quantize_input,
)

#: The device registry's published windows.
PRESET_WINDOWS = [entry.parameters for _, entry in DEVICES.items()]


def legacy_run(mvm: AnalogMVM, x: np.ndarray):
    """One sample through the original scalar loop: outputs + ledger.

    A direct transcription of the pre-vectorization pipeline (and of
    :meth:`AnalogMVM._matvec_serial`, with ideal currents synthesized
    from the tiles' intended programs): bit-serial slices outermost,
    tiles in grid order, one ADC conversion block and one energy addend
    per active read, float accumulations in the exact serial order.
    """
    x_int, x_scale = quantize_input(x, mvm.config.dac_bits)
    y = np.zeros(mvm.out_dim, dtype=float)
    ledger = {
        "reads": 0,
        "adc_conversions": 0,
        "adc_saturations": 0,
        "tile_saturations": [0] * len(mvm.tiles),
        # Raw per-read addends, in read order: the ledger folds energy
        # one read at a time across the whole batch, so the oracle
        # must not pre-fold a sample's reads into a subtotal.
        "energy_addends": [],
        "latency_seconds": mvm.config.dac_bits
        * mvm.energy_model.latency_seconds,
    }
    if x_scale == 0.0:
        return y, ledger
    slices = bit_slices(x_int, mvm.config.dac_bits)
    for s, mask in enumerate(slices):
        weight = 2.0 ** s
        for index, (row0, col0, tile) in enumerate(mvm.tiles):
            sub = mask[row0:row0 + tile.rows]
            active_rows = np.nonzero(sub)[0]
            if active_rows.size == 0:
                continue
            currents = tile.ideal_currents(active_rows)
            codes, saturated = mvm.adc.convert(
                currents, int(active_rows.size))
            ledger["reads"] += 1
            ledger["adc_conversions"] += tile.physical_cols
            ledger["adc_saturations"] += saturated
            ledger["tile_saturations"][index] += saturated
            ledger["energy_addends"].append(
                mvm.energy_model.operation_energy(tile.physical_cols))
            y[col0:col0 + tile.out_cols] += weight * tile.combine(codes)
    return y * x_scale, ledger


def assert_ledger_equals(mvm: AnalogMVM, ledgers) -> None:
    """The accumulated ledger equals the oracle ledgers' serial fold."""
    assert mvm.reads == sum(l["reads"] for l in ledgers)
    assert mvm.adc_conversions == \
        sum(l["adc_conversions"] for l in ledgers)
    assert mvm.adc_saturations == \
        sum(l["adc_saturations"] for l in ledgers)
    assert mvm.tile_saturations == [
        sum(l["tile_saturations"][t] for l in ledgers)
        for t in range(len(mvm.tiles))
    ]
    energy = 0.0
    latency = 0.0
    for l in ledgers:
        for addend in l["energy_addends"]:
            energy += addend
        latency += l["latency_seconds"]
    # Bitwise float equality -- the ledger replays the serial
    # accumulation order, so there is no tolerance to hide behind.
    assert mvm.energy_joules == energy
    assert mvm.latency_seconds == latency


def exact_regime(mvm: AnalogMVM) -> bool:
    """The exact reference's predicate, recomputed from the mapping:
    no ideal code can clip or round away from its ON-cell count."""
    max_rows = max(tile.rows for _, _, tile in mvm.tiles)
    return (max_rows <= mvm.adc.max_code
            and max_rows * (mvm.params.r_on / mvm.params.r_off) < 0.25)


@st.composite
def problems(draw):
    """A random geometry, device window and batch, biased toward
    awkward edges and toward both reference regimes."""
    out_dim = draw(st.integers(1, 6))
    in_dim = draw(st.integers(1, 40))
    config = MVMConfig(
        weight_bits=draw(st.integers(1, 4)),
        dac_bits=draw(st.integers(1, 5)),
        adc_bits=draw(st.integers(2, 8)),
        tile_rows=draw(st.integers(1, 40)),
        tile_cols=draw(st.integers(1, 5)),
    )
    # A registry preset, r_off/r_on log-uniform in [2, 1e6], or a
    # window on the exact regime's edge (max_rows * r_on/r_off ~ 0.25).
    window = draw(st.sampled_from(["preset", "log_uniform", "edge"]))
    if window == "preset":
        params = draw(st.sampled_from(PRESET_WINDOWS))
    else:
        if window == "log_uniform":
            ratio = 10.0 ** draw(st.floats(np.log10(2.0), 6.0))
        else:
            max_rows = min(config.tile_rows, in_dim)
            ratio = 4.0 * max_rows * draw(st.floats(0.8, 1.25))
        r_on = 10.0 ** draw(st.floats(2.0, 9.0))
        params = DeviceParameters(r_on=r_on, r_off=r_on * ratio)
    weights = draw(hnp.arrays(
        np.float64, (out_dim, in_dim),
        elements=st.floats(-2.0, 2.0, width=64)))
    if draw(st.booleans()):
        weights = -np.abs(weights)  # all-negative columns
    if draw(st.booleans()) and in_dim > 1:
        weights[:, in_dim // 2:] = 0.0  # zero tiles on the tail rows
    batch = draw(st.integers(0, 3))
    x = draw(hnp.arrays(
        np.float64, (batch, in_dim),
        elements=st.floats(0.0, 3.0, width=64)))
    if not np.abs(weights).max():
        weights[0, 0] = 1.0  # the mapper rejects all-zero matrices
    return config, params, weights, x


class TestVectorizedEqualsLegacy:
    @settings(max_examples=60, deadline=None)
    @given(problems())
    def test_batch_outputs_and_ledger_match_oracle(self, problem):
        config, params, weights, x = problem
        mvm = AnalogMVM(weights, config, params=params)
        y = mvm.matvec_batch(x)
        oracle = [legacy_run(mvm, row) for row in x]
        assert y.shape == (x.shape[0], weights.shape[0])
        for m, (y_ref, _) in enumerate(oracle):
            assert np.array_equal(y[m], y_ref)
        assert_ledger_equals(mvm, [l for _, l in oracle])
        # The digital reference equals the ideal electrical read, in
        # whichever regime the geometry and window select.
        assert mvm._stack.exact_reference == exact_regime(mvm)
        event("exact reference" if mvm._stack.exact_reference
              else "float reference")
        assert np.array_equal(mvm.reference_matvec_batch(x), y)

    def test_ragged_tiles_and_one_bit_dac(self):
        rng = np.random.default_rng(11)
        weights = rng.normal(size=(7, 13))
        mvm = AnalogMVM(weights, MVMConfig(weight_bits=3, dac_bits=1,
                                           adc_bits=5, tile_rows=4,
                                           tile_cols=3))
        x = rng.random((4, 13))
        y = mvm.matvec_batch(x)
        oracle = [legacy_run(mvm, row) for row in x]
        for m, (y_ref, _) in enumerate(oracle):
            assert np.array_equal(y[m], y_ref)
        assert_ledger_equals(mvm, [l for _, l in oracle])

    def test_single_matvec_equals_batch_row(self):
        rng = np.random.default_rng(5)
        weights = rng.normal(size=(5, 9))
        config = MVMConfig(weight_bits=4, dac_bits=3, adc_bits=6,
                           tile_rows=4, tile_cols=2)
        batch = rng.random((6, 9))
        solo = AnalogMVM(weights, config)
        batched = AnalogMVM(weights, config)
        singles = np.stack([solo.matvec(row) for row in batch])
        assert np.array_equal(batched.matvec_batch(batch), singles)
        assert solo.energy_joules == batched.energy_joules
        assert solo.latency_seconds == batched.latency_seconds
        assert solo.tile_saturations == batched.tile_saturations


class TestGroupedEqualsSolo:
    CONFIG = MVMConfig(weight_bits=3, dac_bits=3, adc_bits=5,
                       tile_rows=4, tile_cols=3)

    @settings(max_examples=30, deadline=None)
    @given(problems(), st.integers(2, 3))
    def test_grouped_reference_matches_solo_reads(self, problem, members):
        """Stacked members (own weights, shared geometry) and ledger
        twins (one shared stack, broadcast) both take the stack's
        reference operand; each member equals its solo ideal read."""
        config, params, weights, x = problem
        member_weights = [weights, -weights,
                          np.roll(weights, 1, axis=1)][:members]
        xs = np.stack([np.roll(x, i, axis=0) for i in range(members)])
        stacked = [AnalogAccelerator([w], config, params=params)
                   for w in member_weights]
        template = AnalogAccelerator([weights], config, params=params)
        twins = [template] + [template.ledger_twin()
                              for _ in range(members - 1)]
        for accelerators, solo_weights in (
                (stacked, member_weights),
                (twins, [weights] * members)):
            group = AnalogAcceleratorGroup(accelerators)
            ref = group.reference_matvec_batch(0, xs)
            for i, w in enumerate(solo_weights):
                solo = AnalogMVM(w, config, params=params)
                assert np.array_equal(ref[i], solo.matvec_batch(xs[i]))

    def test_grouped_members_match_solo_accelerators(self):
        rng = np.random.default_rng(7)
        layer_shapes = [(5, 11), (3, 5)]
        members = [
            [rng.normal(size=shape) for shape in layer_shapes]
            for _ in range(3)
        ]
        grouped = [AnalogAccelerator(w, self.CONFIG) for w in members]
        solo = [AnalogAccelerator(w, self.CONFIG) for w in members]
        group = AnalogAcceleratorGroup(grouped)
        x = rng.random((3, 4, 11))
        y0 = group.matvec_batch(0, x)
        y1 = group.matvec_batch(1, np.maximum(y0, 0.0))
        for i, acc in enumerate(solo):
            h = acc.matvec_batch(0, x[i])
            assert np.array_equal(y0[i], h)
            assert np.array_equal(
                y1[i], acc.matvec_batch(1, np.maximum(h, 0.0)))
            assert grouped[i].energy_joules == acc.energy_joules
            assert grouped[i].latency_seconds == acc.latency_seconds
            assert grouped[i].tile_saturations == acc.tile_saturations
            assert grouped[i].reads == acc.reads
        ref = group.reference_matvec_batch(0, x)
        for i, acc in enumerate(solo):
            assert np.array_equal(
                ref[i], acc.reference_matvec_batch(0, x[i]))

    def test_ledger_twins_match_independent_members(self):
        rng = np.random.default_rng(13)
        weights = [rng.normal(size=(4, 10))]
        template = AnalogAccelerator(weights, self.CONFIG)
        twins = [template] + [template.ledger_twin() for _ in range(2)]
        solo = [AnalogAccelerator(weights, self.CONFIG)
                for _ in range(3)]
        x = rng.random((3, 5, 10))
        y = AnalogAcceleratorGroup(twins).matvec_batch(0, x)
        for i, acc in enumerate(solo):
            assert np.array_equal(y[i], acc.matvec_batch(0, x[i]))
            assert twins[i].energy_joules == acc.energy_joules
            assert twins[i].latency_seconds == acc.latency_seconds
            assert twins[i].reads == acc.reads
