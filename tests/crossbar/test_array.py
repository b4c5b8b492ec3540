"""Tests for the functional crossbar array."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.crossbar import Crossbar, CrossbarStack
from repro.crossbar.array import as_bits
from repro.devices import DeviceParameters, VariabilityModel

PARAMS = DeviceParameters()

#: Values an int8 cast would wrap or truncate into a valid-looking bit
#: (256 -> 0, 257 -> 1, 0.5 -> 0); every write path must reject them.
#: The int8 and uint8 ones build words of their own dtype, which the
#: one-pass check reads as uint8 (int8 -1 as 255, -128 as 128).
NOT_BITS = [2, -1, 256, 257, 0.5, np.nan,
            np.int8(-1), np.int8(-128), np.int8(2), np.uint8(255)]


def make(rows=4, cols=8, **kwargs):
    return Crossbar(rows, cols, params=PARAMS, **kwargs)


class TestConstruction:
    def test_initial_state_all_zero(self):
        xb = make()
        assert (xb.bits == 0).all()
        assert (xb.resistances == PARAMS.r_off).all()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Crossbar(0, 8)

    def test_rejects_disturbing_read_voltage(self):
        with pytest.raises(ValueError):
            Crossbar(4, 4, params=PARAMS, read_voltage_volts=1.4)  # above v_set

    def test_rejects_negative_read_voltage(self):
        with pytest.raises(ValueError):
            Crossbar(4, 4, params=PARAMS, read_voltage_volts=-0.2)

    def test_variability_requires_rng(self):
        with pytest.raises(ValueError):
            Crossbar(4, 4, variability=VariabilityModel())


class TestReadVoltageValidationOrder:
    """Positivity is diagnosed before the dead-zone check.

    A non-positive voltage that also falls outside the dead zone must
    raise the "must be positive" message, not a misleading disturb
    warning; voltages inside (0, v_set) but at or past a boundary get
    the dead-zone message.
    """

    def test_large_negative_voltage_reports_positivity(self):
        # -v_reset - 1 is outside the dead zone AND non-positive.
        bad = -PARAMS.v_reset - 1.0
        with pytest.raises(ValueError, match="must be positive"):
            Crossbar(4, 4, params=PARAMS, read_voltage_volts=bad)

    def test_zero_voltage_reports_positivity(self):
        with pytest.raises(ValueError, match="must be positive"):
            Crossbar(4, 4, params=PARAMS, read_voltage_volts=0.0)

    def test_small_negative_voltage_reports_positivity(self):
        # Inside the dead zone but non-positive: still the positivity
        # message (the dead-zone check alone would have let it pass).
        with pytest.raises(ValueError, match="must be positive"):
            Crossbar(4, 4, params=PARAMS, read_voltage_volts=-PARAMS.v_reset / 2)

    def test_voltage_at_set_threshold_reports_dead_zone(self):
        with pytest.raises(ValueError, match="dead zone"):
            Crossbar(4, 4, params=PARAMS, read_voltage_volts=PARAMS.v_set)

    def test_voltage_above_set_threshold_reports_dead_zone(self):
        with pytest.raises(ValueError, match="dead zone"):
            Crossbar(4, 4, params=PARAMS, read_voltage_volts=PARAMS.v_set + 0.1)

    def test_voltage_just_inside_dead_zone_accepted(self):
        xb = Crossbar(4, 4, params=PARAMS,
                      read_voltage_volts=PARAMS.v_set * 0.999)
        assert xb.read_voltage == pytest.approx(PARAMS.v_set * 0.999)


class TestProgramming:
    def test_write_row_and_read_back(self):
        xb = make()
        word = [1, 0, 1, 1, 0, 0, 1, 0]
        xb.write_row(2, word)
        np.testing.assert_array_equal(xb.read_row(2), word)

    def test_write_single_cell(self):
        xb = make()
        xb.write(1, 3, 1)
        assert xb.bits[1, 3] == 1
        assert xb.resistances[1, 3] == PARAMS.r_on

    def test_load_matrix(self):
        xb = make(rows=3, cols=4)
        m = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [1, 1, 1, 1]])
        xb.load_matrix(m)
        np.testing.assert_array_equal(xb.bits, m)

    def test_load_matrix_shape_check(self):
        xb = make(rows=3, cols=4)
        with pytest.raises(ValueError):
            xb.load_matrix(np.zeros((4, 3)))

    def test_write_row_validates_length_and_values(self):
        xb = make()
        with pytest.raises(ValueError):
            xb.write_row(0, [1, 0])
        with pytest.raises(ValueError):
            xb.write_row(0, [2] * 8)

    def test_row_bounds(self):
        xb = make()
        with pytest.raises(IndexError):
            xb.write_row(99, [0] * 8)
        with pytest.raises(IndexError):
            xb.write(0, 99, 1)


class TestEnduranceAccounting:
    def test_cycles_count_only_changes(self):
        xb = make()
        xb.write_row(0, [1, 1, 0, 0, 0, 0, 0, 0])
        xb.write_row(0, [1, 1, 0, 0, 0, 0, 0, 0])  # no change, no wear
        assert xb.max_program_cycles() == 1
        xb.write_row(0, [0, 1, 0, 0, 0, 0, 0, 0])  # one flip
        assert xb.program_cycles[0, 0] == 2
        assert xb.program_cycles[0, 1] == 1

    def test_reads_are_free(self):
        xb = make()
        xb.write_row(0, [1] * 8)
        before = xb.program_cycles.copy()
        for _ in range(100):
            xb.read_row(0)
            xb.column_currents([0])
        np.testing.assert_array_equal(xb.program_cycles, before)


class TestReads:
    def test_column_currents_single_row(self):
        xb = make()
        xb.write_row(0, [1, 0, 1, 0, 0, 0, 0, 0])
        i = xb.column_currents([0])
        vr = xb.read_voltage
        assert i[0] == pytest.approx(vr / PARAMS.r_on)
        assert i[1] == pytest.approx(vr / PARAMS.r_off)

    def test_multi_row_currents_sum(self):
        xb = make()
        xb.write_row(0, [1, 1, 0, 0, 0, 0, 0, 0])
        xb.write_row(1, [1, 0, 1, 0, 0, 0, 0, 0])
        i = xb.column_currents([0, 1])
        vr = xb.read_voltage
        assert i[0] == pytest.approx(2 * vr / PARAMS.r_on)
        assert i[1] == pytest.approx(vr / PARAMS.r_on + vr / PARAMS.r_off)
        assert i[3] == pytest.approx(2 * vr / PARAMS.r_off)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_one_column_read_folds_left_like_the_stack(self, data):
        """Eight or more activated rows of a single column fold left in
        activation order, as every wider read does and as the stack
        holding the same bits does (numpy's axis sum would add them
        pairwise)."""
        rows = data.draw(st.integers(8, 20), label="rows")
        r_on = data.draw(st.floats(10.0, 1e6), label="r_on")
        ratio = data.draw(st.floats(1.01, 1e4), label="r_off / r_on")
        params = DeviceParameters(r_on=r_on, r_off=r_on * ratio)
        bits = data.draw(arrays(np.int8, (rows, 1),
                                elements=st.integers(0, 1)), label="bits")
        order = data.draw(st.permutations(range(rows)), label="order")
        active = order[:data.draw(st.integers(8, rows), label="active")]
        xb = Crossbar(rows, 1, params=params)
        xb.load_matrix(bits)
        stack = CrossbarStack(1, rows, 1, params=params)
        stack.load_tensor(bits[None])

        conductance = 1.0 / np.where(bits[active, 0] == 1,
                                     params.r_on, params.r_off)
        folded = conductance[0]
        for g in conductance[1:]:
            folded = folded + g
        currents = xb.column_currents(active)
        assert currents.tobytes() == \
            np.array([xb.read_voltage * folded]).tobytes()
        assert currents.tobytes() == \
            stack.column_currents(active)[0].tobytes()

    def test_duplicate_rows_rejected(self):
        xb = make()
        with pytest.raises(ValueError):
            xb.column_currents([0, 0])

    def test_empty_activation_rejected(self):
        xb = make()
        with pytest.raises(ValueError):
            xb.column_currents([])

    def test_read_row_with_variability(self):
        rng = np.random.default_rng(23)
        xb = Crossbar(4, 64, params=PARAMS,
                      variability=VariabilityModel(), rng=rng)
        word = rng.integers(0, 2, 64)
        xb.write_row(1, word)
        np.testing.assert_array_equal(xb.read_row(1), word)


class TestFaults:
    def test_stuck_cell_ignores_writes(self):
        xb = make()
        xb.inject_stuck_fault(0, 0, 1)
        xb.write_row(0, [0] * 8)
        assert xb.bits[0, 0] == 1

    def test_drift_scales_resistances(self):
        xb = make()
        before = xb.resistances.copy()
        xb.apply_resistance_drift(2.0)
        np.testing.assert_allclose(xb.resistances, 2.0 * before)

    def test_stored_word_bypasses_electrical(self):
        xb = make()
        xb.write_row(0, [1, 0, 0, 0, 0, 0, 0, 1])
        np.testing.assert_array_equal(
            xb.stored_word(0), [1, 0, 0, 0, 0, 0, 0, 1]
        )


class TestBatchedReadsAndWrites:
    """The batched Crossbar primitives match their looped equivalents."""

    def test_write_rows_equals_looped_write_row(self):
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2, (3, 8))
        batched = make(rows=6, cols=8)
        looped = make(rows=6, cols=8)
        batched.write_rows([1, 3, 4], bits)
        for i, row in enumerate([1, 3, 4]):
            looped.write_row(row, bits[i])
        np.testing.assert_array_equal(batched.bits, looped.bits)
        np.testing.assert_array_equal(batched.resistances,
                                      looped.resistances)
        np.testing.assert_array_equal(batched.program_cycles,
                                      looped.program_cycles)

    def test_write_rows_respects_stuck_cells(self):
        xb = make(rows=6, cols=8)
        xb.inject_stuck_fault(1, 0, 1)
        xb.write_rows([1], np.zeros((1, 8), dtype=int))
        assert xb.bits[1, 0] == 1
        assert xb.program_cycles[1, 0] == 0

    def test_write_rows_rejects_duplicates_and_bad_shapes(self):
        xb = make(rows=6, cols=8)
        with pytest.raises(ValueError, match="duplicate"):
            xb.write_rows([1, 1], np.zeros((2, 8), dtype=int))
        with pytest.raises(ValueError, match="shape"):
            xb.write_rows([1, 2], np.zeros((2, 5), dtype=int))


class TestCrossbarStack:
    def test_matches_a_loop_of_single_crossbars(self):
        rng = np.random.default_rng(3)
        batch, rows, cols = 4, 5, 8
        words = rng.integers(0, 2, (batch, rows, cols))
        stack = CrossbarStack(batch, rows, cols, params=PARAMS)
        stack.load_tensor(words)
        for b in range(batch):
            single = make(rows=rows, cols=cols)
            single.load_matrix(words[b])
            np.testing.assert_array_equal(stack.bits[b], single.bits)
            np.testing.assert_array_equal(
                stack.resistances[b], single.resistances
            )
            np.testing.assert_array_equal(
                stack.column_currents([0, 2])[b],
                single.column_currents([0, 2]),
            )
            np.testing.assert_array_equal(
                stack.read_row(1)[b], single.read_row(1)
            )

    def test_broadcast_write_row(self):
        stack = CrossbarStack(3, 2, 4, params=PARAMS)
        stack.write_row(0, [1, 0, 1, 0])
        np.testing.assert_array_equal(
            stack.stored_word(0), [[1, 0, 1, 0]] * 3
        )

    def test_program_cycles_count_changes_only(self):
        stack = CrossbarStack(2, 2, 4, params=PARAMS)
        stack.write_row(0, np.array([[1, 1, 0, 0], [0, 0, 0, 0]]))
        stack.write_row(0, np.array([[1, 0, 0, 0], [0, 1, 0, 0]]))
        np.testing.assert_array_equal(
            stack.program_cycles[:, 0, :],
            [[1, 2, 0, 0], [0, 1, 0, 0]],
        )
        assert stack.max_program_cycles() == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one logical"):
            CrossbarStack(0, 2, 2)
        with pytest.raises(ValueError, match="must be positive"):
            CrossbarStack(1, 2, 2, read_voltage_volts=-1.0)
        with pytest.raises(ValueError, match="dead zone"):
            CrossbarStack(1, 2, 2, params=PARAMS,
                          read_voltage_volts=PARAMS.v_set + 1.0)
        stack = CrossbarStack(1, 2, 2)
        with pytest.raises(ValueError, match="0 or 1"):
            stack.write_row(0, [2, 0])
        with pytest.raises(IndexError):
            stack.column_currents([5])


class TestBitsOnlyStack:
    """An ideal stack stores bits alone; resistances and reads derive
    from them, the same floats a stored resistance array gives."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_reads_equal_the_derived_resistance_sum(self, data):
        # Up to 12 rows, so activations cross the read table's
        # 8-row width and fold the rest on.
        batch = data.draw(st.integers(1, 3), label="batch")
        rows = data.draw(st.integers(1, 12), label="rows")
        cols = data.draw(st.integers(1, 9), label="cols")
        r_on = data.draw(st.floats(10.0, 1e6), label="r_on")
        ratio = data.draw(st.floats(1.01, 1e4), label="r_off / r_on")
        params = DeviceParameters(r_on=r_on, r_off=r_on * ratio)
        tensors = arrays(np.int8, (batch, rows, cols),
                         elements=st.integers(0, 1))
        stack = CrossbarStack(batch, rows, cols, params=params)
        stack.load_tensor(data.draw(tensors, label="first bits"))
        bits = data.draw(tensors, label="bits")
        stack.load_tensor(bits)  # a rewrite flips some cells back
        derived = np.where(bits, params.r_on, params.r_off)
        order = data.draw(st.permutations(range(rows)), label="order")
        active = order[:data.draw(st.integers(1, rows))]

        currents = stack.column_currents(active)
        gathered = (1.0 / derived)[:, active, :]
        folded = gathered[:, 0, :]
        for k in range(1, len(active)):
            folded = folded + gathered[:, k, :]
        assert currents.dtype == np.float64
        assert currents.tobytes() == (
            stack.read_voltage * folded).tobytes()
        if cols > 1 or len(active) < 8:
            # The old gather-and-sum: numpy's axis sum folds left here.
            # (On one column it sums eight or more rows pairwise.)
            expected = stack.read_voltage * gathered.sum(axis=1)
            assert currents.tobytes() == expected.tobytes()

        resistances = stack.resistances
        assert resistances.dtype == np.float64
        assert resistances.tobytes() == derived.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            resistances[0, 0, 0] = params.r_on
        with pytest.raises(AttributeError):
            stack.resistances = derived

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_wear_counts_every_changed_cell(self, data):
        batch = data.draw(st.integers(1, 3), label="batch")
        rows = data.draw(st.integers(1, 12), label="rows")
        cols = data.draw(st.integers(1, 9), label="cols")
        stack = CrossbarStack(batch, rows, cols, params=PARAMS)
        stored = np.zeros((batch, rows, cols), dtype=int)
        wear = np.zeros((batch, rows, cols), dtype=int)
        for _ in range(data.draw(st.integers(0, 16), label="writes")):
            row = data.draw(st.integers(0, rows - 1), label="row")
            shape = data.draw(st.sampled_from([(cols,), (batch, cols)]),
                              label="word shape")
            word = data.draw(arrays(np.int8, shape,
                                    elements=st.integers(0, 1)),
                             label="word")
            stack.write_row(row, word)
            for b in range(batch):
                new = word if word.ndim == 1 else word[b]
                for c in range(cols):
                    if stored[b, row, c] != new[c]:
                        stored[b, row, c] = new[c]
                        wear[b, row, c] += 1

        cycles = stack.program_cycles
        assert cycles.shape == (batch, rows, cols)
        assert cycles.dtype == np.int64
        np.testing.assert_array_equal(cycles, wear)
        np.testing.assert_array_equal(stack.bits, stored)
        assert stack.max_program_cycles() == wear.max()
        with pytest.raises(ValueError, match="read-only"):
            cycles[0, 0, 0] = 0
        with pytest.raises(AttributeError):
            stack.program_cycles = wear


class TestBitValueChecks:
    """Values are checked before the int8 cast, on every write path."""

    @staticmethod
    def word(bad, cols=8):
        return np.array([0, 1] * (cols // 2 - 1) + [1, bad],
                        dtype=np.asarray(bad).dtype)

    @pytest.mark.parametrize("bad", NOT_BITS)
    def test_write_row_rejects(self, bad):
        xb = make()
        with pytest.raises(ValueError, match="0 or 1"):
            xb.write_row(0, self.word(bad))
        with pytest.raises(ValueError, match="0 or 1"):
            xb.write_row(0, self.word(bad).tolist())
        assert not xb.bits.any()
        assert not xb.program_cycles.any()

    @pytest.mark.parametrize("bad", NOT_BITS)
    def test_write_rows_rejects(self, bad):
        xb = make()
        bad_word = self.word(bad)
        block = np.stack([np.zeros_like(bad_word), bad_word])
        with pytest.raises(ValueError, match="0 or 1"):
            xb.write_rows([0, 1], block)
        assert not xb.bits.any()

    @pytest.mark.parametrize("bad", NOT_BITS)
    def test_stack_write_row_rejects(self, bad):
        stack = CrossbarStack(3, 2, 8, params=PARAMS)
        with pytest.raises(ValueError, match="0 or 1"):
            stack.write_row(0, self.word(bad))  # broadcast form
        bad_word = self.word(bad)
        per_item = np.stack(
            [np.zeros_like(bad_word), np.ones_like(bad_word), bad_word])
        with pytest.raises(ValueError, match="0 or 1"):
            stack.write_row(0, per_item)
        assert not stack.bits.any()

    def test_valid_forms_store_the_same_bits(self):
        word = self.word(0)
        for form in (word.tolist(), word, word.astype(bool),
                     word.astype(np.int8), word.astype(float)):
            xb = make()
            xb.write_row(1, form)
            np.testing.assert_array_equal(xb.bits[1], word)

    def test_as_bits_copies_only_on_request(self):
        word = self.word(0).astype(np.int8)
        assert as_bits(word) is word
        copied = as_bits(word, copy=True)
        assert copied is not word and copied.dtype == np.int8
        np.testing.assert_array_equal(copied, word)
