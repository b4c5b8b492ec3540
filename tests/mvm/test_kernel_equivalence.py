"""Vectorized kernel == legacy scalar pipeline, bit for bit.

The structure-of-arrays kernel in ``repro.mvm.kernel`` is the one
implementation of an analog matvec, and it promises to be a pure
layout change: every output *and every ledger increment* must equal
the original per-slice x per-tile scalar loop exactly -- not
approximately.  That loop is kept as the oracle,
``tests/mvm/scalar_pipeline.py`` (fixture ``scalar_pipeline``):
currents read per read, ADC conversion per tile, shift-and-add in
slice-major tile order, one energy addend per read.  This suite drives
both through hypothesis-generated geometries -- ragged tiles,
all-negative columns, zero tiles, 1-bit DAC, several row bands, tiles
taller than an int64 read key, repeated input rows -- plus the grouped
member-axis execution and ledger twins, asserting bitwise equality
throughout.

The kernel evaluates each distinct (fabric, row band, pattern) read
once and gathers it back to every read, so repeats are drawn on
purpose: on ideal fabrics (currents synthesized from the intended
programs) and on faulty, variable and wire-drop ones (each tile's
programmed crossbar read per read, the wire networks solved per read),
solo and grouped, with members sharing one fabric or each owning
theirs.

Device windows are drawn too, so the digital reference runs in both of
its regimes: the exact integer matvec (every ideal code equals its
ON-cell count) and, outside it, the ideal currents through the ADC.
Either way it must equal the ideal electrical read bit for bit.
"""

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.api.registry import DEVICES
from repro.crossbar.nonideal import NonidealitySpec
from repro.devices.base import DeviceParameters
from repro.mvm import (
    AnalogAccelerator,
    AnalogAcceleratorGroup,
    AnalogMVM,
    MVMConfig,
    quantize_batch,
)
from repro.mvm import kernel

#: The device registry's published windows.
PRESET_WINDOWS = [entry.parameters for _, entry in DEVICES.items()]


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


def assert_same_ledger(mvm: AnalogMVM, other: AnalogMVM) -> None:
    """Two runs charged identical ledgers, floats to the last bit."""
    assert mvm.reads == other.reads
    assert mvm.adc_conversions == other.adc_conversions
    assert mvm.adc_saturations == other.adc_saturations
    assert mvm.tile_saturations == other.tile_saturations
    assert mvm.energy_joules == other.energy_joules
    assert mvm.latency_seconds == other.latency_seconds


def exact_regime(mvm: AnalogMVM) -> bool:
    """The exact reference's predicate, recomputed from the mapping:
    no ideal code can clip or round away from its ON-cell count."""
    max_rows = max(tile.rows for _, _, tile in mvm.tiles)
    return (max_rows <= mvm.adc.max_code
            and max_rows * (mvm.params.r_on / mvm.params.r_off) < 0.25)


@st.composite
def problems(draw, small=False):
    """A random geometry, device window and batch, biased toward
    awkward edges, toward both reference regimes and toward reads that
    repeat (duplicated input rows).  ``small`` problems keep a few
    rows, columns and slices per read, for fabrics whose every read is
    a nodal solve."""
    out_dim = draw(st.integers(1, 3 if small else 6))
    # Short layers; long layers over many row bands; or tiles whose
    # activation patterns overflow an int64 read key (over 62 rows).
    in_dim, tile_rows = draw(st.sampled_from([
        (st.integers(1, 12), st.integers(1, 6)),
    ] if small else [
        (st.integers(1, 40), st.integers(1, 40)),
        (st.integers(41, 80), st.integers(1, 40)),
        (st.integers(63, 80), st.integers(63, 80)),
    ]).flatmap(lambda heights: st.tuples(*heights)))
    config = MVMConfig(
        weight_bits=draw(st.integers(1, 2 if small else 4)),
        dac_bits=draw(st.integers(1, 3 if small else 5)),
        adc_bits=draw(st.integers(2, 8)),
        tile_rows=tile_rows,
        tile_cols=draw(st.integers(1, 2 if small else 5)),
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
    batch = draw(st.integers(0, 2 if small else 3))
    x = draw(hnp.arrays(
        np.float64, (batch, in_dim),
        elements=st.floats(0.0, 3.0, width=64)))
    if batch:
        # Repeated rows repeat every one of their reads.
        again = draw(st.lists(st.integers(0, batch - 1), max_size=3))
        x = np.concatenate([x, x[again]])
    if not np.abs(weights).max():
        weights[0, 0] = 1.0  # the mapper rejects all-zero matrices
    return config, params, weights, x


@st.composite
def nonidealities(draw):
    """Stuck faults, lognormal variability and/or wire IR drop (never
    ideal)."""
    wire = draw(st.sampled_from([0.0, 0.0, 2.0, 50.0]))
    fault_rate = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    sigma = draw(st.sampled_from([0.1, 0.4] if fault_rate == wire == 0.0
                                 else [0.0, 0.1, 0.4]))
    stuck = draw(st.sampled_from([0.0, 0.5, 1.0])) if fault_rate \
        else 0.5
    return NonidealitySpec(fault_rate=fault_rate,
                           stuck_at_one_fraction=stuck,
                           variability_sigma=sigma,
                           wire_resistance=wire)


@st.composite
def nonideal_problems(draw):
    """A nonideality and a problem to run on it: a small one on a
    wire-drop fabric, where every distinct read (and every oracle
    read) solves a nodal network."""
    nonideality = draw(nonidealities())
    wired = nonideality.wire_resistance > 0
    event("wire drop" if wired else "no wire drop")
    return draw(problems(small=wired)), nonideality


def key_fits(rows: int, groups: int) -> bool:
    """True when reads of ``rows``-row tiles over ``groups`` (fabric,
    band) pairs fit the kernel's int64 key and are deduplicated."""
    return rows + (groups - 1).bit_length() <= 63


def key_form(mvm: AnalogMVM) -> str:
    """Whether a solo batch through ``mvm`` deduplicates its reads."""
    stack = mvm._stack
    return ("int64 key" if key_fits(stack._max_rows, len(stack.bands))
            else "unkeyed reads")


class TestVectorizedEqualsLegacy:
    @settings(max_examples=60, deadline=None)
    @given(problems())
    def test_batch_outputs_and_ledger_match_oracle(self, scalar_pipeline,
                                                   problem):
        config, params, weights, x = problem
        mvm = AnalogMVM(weights, config, params=params)
        event(key_form(mvm))
        y = mvm.matvec_batch(x)
        oracle = [scalar_pipeline.legacy_run(mvm, row) for row in x]
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

    def test_ragged_tiles_and_one_bit_dac(self, scalar_pipeline):
        rng = np.random.default_rng(11)
        weights = rng.normal(size=(7, 13))
        mvm = AnalogMVM(weights, MVMConfig(weight_bits=3, dac_bits=1,
                                           adc_bits=5, tile_rows=4,
                                           tile_cols=3))
        x = rng.random((4, 13))
        y = mvm.matvec_batch(x)
        oracle = [scalar_pipeline.legacy_run(mvm, row) for row in x]
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
        singles = np.stack([solo.matvec_batch(row[None])[0]
                            for row in batch])
        assert np.array_equal(batched.matvec_batch(batch), singles)
        assert solo.energy_joules == batched.energy_joules
        assert solo.latency_seconds == batched.latency_seconds
        assert solo.tile_saturations == batched.tile_saturations


class TestNonidealEqualsPerRead:
    """Faulty, variable and wire-drop fabrics against per-read crossbar
    reads."""

    @settings(max_examples=40, deadline=None)
    @given(nonideal_problems(), st.integers(0, 2 ** 16))
    def test_solo_matches_per_read_oracle(self, scalar_pipeline,
                                          nonideal_problem, seed):
        (config, params, weights, x), nonideality = nonideal_problem
        mvm = AnalogMVM(weights, config, params=params,
                        nonideality=nonideality,
                        rng=np.random.default_rng(seed))
        event(key_form(mvm))
        y = mvm.matvec_batch(x)
        oracle = [scalar_pipeline.legacy_run(
            mvm, row, scalar_pipeline.fabric_read) for row in x]
        for m, (y_ref, _) in enumerate(oracle):
            assert np.array_equal(y[m], y_ref)
        assert_ledger_equals(mvm, [l for _, l in oracle])

    @settings(max_examples=20, deadline=None)
    @given(nonideal_problems(), st.integers(2, 4))
    def test_grouped_members_own_fabrics(self, scalar_pipeline,
                                         nonideal_problem, members):
        """Members program their own fabrics from their own streams
        and read overlapping batches: equal patterns on different
        fabrics are different reads."""
        (config, params, weights, x), nonideality = nonideal_problem
        accelerators = [
            AnalogAccelerator([weights], config, params=params,
                              nonideality=nonideality,
                              rng=np.random.default_rng(i))
            for i in range(members)]
        xs = np.stack([np.roll(x, i, axis=0) for i in range(members)])
        y = AnalogAcceleratorGroup(accelerators).matvec_batch(0, xs)
        for i, accelerator in enumerate(accelerators):
            mvm = accelerator.layers[0]
            oracle = [scalar_pipeline.legacy_run(
                mvm, row, scalar_pipeline.fabric_read) for row in xs[i]]
            for m, (y_ref, _) in enumerate(oracle):
                assert np.array_equal(y[i, m], y_ref)
            assert_ledger_equals(mvm, [l for _, l in oracle])


class TestReadKeys:
    """Read keys are exact: every read maps to the distinct read of its
    own (fabric, band, pattern), and reads too wide for the int64 key
    are each their own distinct read."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 80), st.integers(1, 80), st.integers(1, 5),
           st.booleans(), st.integers(0, 2 ** 16))
    def test_keys_reconstruct_every_read(self, in_dim, tile_rows,
                                         members, keyed, seed):
        stack = AnalogMVM(np.ones((2, in_dim)),
                          MVMConfig(tile_rows=tile_rows))._stack
        rng = np.random.default_rng(seed)
        n_bands, rows = len(stack.bands), stack._max_rows
        # Few sparse patterns, so keys repeat within and across members.
        pool = rng.random((3, rows)) < 0.3
        masks = pool[rng.integers(0, 3, (members, n_bands, 4, 2))]
        patterns, fabric, band, inverse = stack._distinct_reads(
            masks, keyed=keyed)
        assert np.array_equal(patterns[inverse], masks)
        assert (band[inverse]
                == np.arange(n_bands)[:, None, None]).all()
        owner = np.arange(members)[:, None, None, None] if keyed else 0
        assert (fabric[inverse] == owner).all()
        keys = {(int(f), int(b), p.tobytes())
                for f, b, p in zip(fabric, band, patterns)}
        groups = members * n_bands if keyed else n_bands
        if key_fits(rows, groups):
            event("int64 key")
            assert len(keys) == len(patterns)
        else:
            event("unkeyed reads")
            assert len(patterns) == masks[..., 0].size


class TestChunking:
    """Batches over the workspace budget run in sample chunks, and each
    chunk deduplicates only its own reads.  With a budget of one
    element every sample is its own chunk; outputs, performed-read
    masks and saturations must equal the one-chunk run and the per-read
    oracle."""

    @settings(max_examples=25, deadline=None)
    @given(nonideal_problems(), st.integers(0, 2 ** 16))
    def test_solo(self, scalar_pipeline, nonideal_problem, seed):
        (config, params, weights, x), nonideality = nonideal_problem
        assume(len(x) >= 2)
        mvm = AnalogMVM(weights, config, params=params,
                        nonideality=nonideality,
                        rng=np.random.default_rng(seed))
        x_int, scales = quantize_batch(x, config.dac_bits)
        args = (x_int[None], scales[None], True, [mvm._stack])
        whole = mvm._stack.execute_group(*args)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernel, "_WORKSPACE_ELEMENTS", 1)
            chunked = mvm._stack.execute_group(*args)
            y = mvm.matvec_batch(x)
        for ours, theirs in zip(chunked, whole):
            assert np.array_equal(ours, theirs)
        oracle = [scalar_pipeline.legacy_run(
            mvm, row, scalar_pipeline.fabric_read) for row in x]
        for m, (y_ref, _) in enumerate(oracle):
            assert np.array_equal(y[m], y_ref)
        assert_ledger_equals(mvm, [l for _, l in oracle])

    @settings(max_examples=25, deadline=None)
    @given(nonideal_problems(), st.integers(2, 8))
    def test_ledger_twin_group(self, scalar_pipeline, nonideal_problem,
                               members):
        (config, params, weights, x), nonideality = nonideal_problem
        assume(len(x) >= 2)
        template = AnalogAccelerator([weights], config, params=params,
                                     nonideality=nonideality,
                                     rng=np.random.default_rng(1))
        twins = [template] + [template.ledger_twin()
                              for _ in range(members - 1)]
        xs = np.stack([np.roll(x, i, axis=0) for i in range(members)])
        stack = template.layers[0]._stack
        x_int, scales = quantize_batch(
            xs.reshape(-1, xs.shape[2]), config.dac_bits)
        args = (x_int.reshape(xs.shape), scales.reshape(xs.shape[:2]),
                True, [stack])
        whole = stack.execute_group(*args)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernel, "_WORKSPACE_ELEMENTS", 1)
            chunked = stack.execute_group(*args)
            y = AnalogAcceleratorGroup(twins).matvec_batch(0, xs)
        for ours, theirs in zip(chunked, whole):
            assert np.array_equal(ours, theirs)
        for i, twin in enumerate(twins):
            mvm = twin.layers[0]
            oracle = [scalar_pipeline.legacy_run(
                mvm, row, scalar_pipeline.fabric_read) for row in xs[i]]
            for m, (y_ref, _) in enumerate(oracle):
                assert np.array_equal(y[i, m], y_ref)
            assert_ledger_equals(mvm, [l for _, l in oracle])


class TestGroupedEqualsSolo:
    CONFIG = MVMConfig(weight_bits=3, dac_bits=3, adc_bits=5,
                       tile_rows=4, tile_cols=3)

    @settings(max_examples=30, deadline=None)
    @given(problems(), st.integers(2, 8))
    def test_grouped_reference_matches_solo_reads(self, problem, members):
        """Stacked members (own weights, shared geometry) and ledger
        twins (one shared stack, broadcast) both take the stack's
        reference operand; each member equals its solo ideal read."""
        config, params, weights, x = problem
        member_weights = [(-1) ** i * np.roll(weights, i // 2, axis=1)
                          for i in range(members)]
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

    @settings(max_examples=30, deadline=None)
    @given(problems(), st.integers(2, 8))
    def test_ledger_twin_groups_match_solo_runs(self, problem, members):
        """Up to 8 twins over one fabric read overlapping batches, so
        keys repeat across the member axis; each twin's outputs and
        ledger equal an independent solo run."""
        config, params, weights, x = problem
        xs = np.stack([np.roll(x, i, axis=0) for i in range(members)])
        template = AnalogAccelerator([weights], config, params=params)
        twins = [template] + [template.ledger_twin()
                              for _ in range(members - 1)]
        y = AnalogAcceleratorGroup(twins).matvec_batch(0, xs)
        for i, twin in enumerate(twins):
            solo = AnalogMVM(weights, config, params=params)
            assert np.array_equal(y[i], solo.matvec_batch(xs[i]))
            assert_same_ledger(twin.layers[0], solo)

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
            h = acc.layers[0].matvec_batch(x[i])
            assert np.array_equal(y0[i], h)
            assert np.array_equal(
                y1[i], acc.layers[1].matvec_batch(np.maximum(h, 0.0)))
            assert grouped[i].energy_joules == acc.energy_joules
            assert grouped[i].latency_seconds == acc.latency_seconds
            assert grouped[i].tile_saturations == acc.tile_saturations
            assert grouped[i].reads == acc.reads
        ref = group.reference_matvec_batch(0, x)
        for i, acc in enumerate(solo):
            assert np.array_equal(
                ref[i], acc.layers[0].reference_matvec_batch(x[i]))

    def test_group_rejects_members_of_another_geometry(self):
        """Members must share layer count, tiling and read model."""
        weights = [np.ones((4, 10))]
        base = AnalogAccelerator(weights, self.CONFIG)
        for other in (
                AnalogAccelerator([np.ones((4, 11))], self.CONFIG),
                AnalogAccelerator(weights + [np.ones((2, 4))],
                                  self.CONFIG),
                AnalogAccelerator(
                    weights, self.CONFIG,
                    nonideality=NonidealitySpec(wire_resistance=5.0))):
            with pytest.raises(ValueError, match="cannot fuse"):
                AnalogAcceleratorGroup([base, other])
        with pytest.raises(ValueError, match="at least one"):
            AnalogAcceleratorGroup([])

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
            assert np.array_equal(y[i], acc.layers[0].matvec_batch(x[i]))
            assert twins[i].energy_joules == acc.energy_joules
            assert twins[i].latency_seconds == acc.latency_seconds
            assert twins[i].reads == acc.reads
