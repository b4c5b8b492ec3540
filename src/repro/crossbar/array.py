"""Functional memristive crossbar array with multi-row activated reads.

The crossbar is the storage *and* compute fabric of both accelerators in the
paper.  Cells sit at row/column intersections; a stored logic 1 is the low
resistance R_L and a 0 the high resistance R_H.  A normal read activates one
row; scouting logic (Fig. 3) and the automata-processor dot product (Fig. 7)
activate several rows at once, summing cell currents on each bit line.

The electrical model is the ideal current sum ``I_j = sum_i Vr / R[i, j]``
over activated rows ``i``; :mod:`repro.crossbar.parasitics` offers an
IR-drop-aware read for wire-resistance studies.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.devices.base import DeviceParameters
from repro.devices.variability import (
    VariabilityModel,
    sample_resistance_rows,
    sample_resistances,
)

__all__ = ["Crossbar", "CrossbarStack", "as_bits", "sense_reference_current"]


def as_bits(bits, copy: bool = False) -> np.ndarray:
    """``bits`` as an int8 array, after checking every value is 0 or 1.

    The check runs on the incoming values, before the cast: casting
    first would wrap out-of-range integers into valid bits (256 -> 0,
    257 -> 1) and truncate fractions (0.5 -> 0).  Bool input needs no
    check.  ``copy=False`` returns an int8 input as it is.

    Raises:
        ValueError: if any value is not 0 or 1.
    """
    raw = np.asarray(bits)
    if raw.dtype in (np.int8, np.uint8):
        # One pass: viewed as uint8, exactly 0 and 1 are <= 1
        # (int8 -1 reads 255, -128 reads 128).
        valid = raw.size == 0 or raw.view(np.uint8).max() <= 1
    else:
        valid = raw.dtype == np.bool_ or ((raw == 0) | (raw == 1)).all()
    if not valid:
        raise ValueError("bits must be 0 or 1")
    return raw.astype(np.int8, copy=copy)


def _stack_word(bits, batch: int, cols: int) -> np.ndarray:
    """One word line of a stack as checked (batch, cols) int8 bits.

    Shared by the ideal and nonideal stacks' ``write_row``: ``bits`` is
    a per-item (batch, cols) matrix, or a (cols,) word that is checked
    once and then broadcast to the whole batch (a read-only view).
    """
    raw = np.asarray(bits)
    if raw.shape not in ((cols,), (batch, cols)):
        raise ValueError(
            f"expected ({batch}, {cols}) or ({cols},) bits, "
            f"got {raw.shape}"
        )
    return np.broadcast_to(as_bits(raw), (batch, cols))


def sense_reference_current(params: DeviceParameters,
                            read_voltage: float) -> float:
    """The single-row read reference: geometric mean of the two levels.

    Sitting at the geometric mean of the single-cell ON and OFF
    currents maximizes margin in the log domain (the natural domain of
    lognormal resistance spread).  One definition shared by the memory
    reads of :class:`Crossbar` / :class:`CrossbarStack` and the
    fidelity probes of :mod:`repro.crossbar.nonideal`, so reported
    margins always describe the decision the read path actually makes.
    """
    i_low = read_voltage / params.r_off
    i_high = read_voltage / params.r_on
    return float(np.sqrt(i_low * i_high))


def _validated_activation_rows(active_rows: Sequence[int],
                               n_rows: int) -> list[int]:
    """Shared activation-set checks for Crossbar and CrossbarStack reads."""
    rows = list(active_rows)
    if not rows:
        raise ValueError("at least one row must be activated")
    if len(set(rows)) != len(rows):
        raise ValueError("duplicate rows in activation set")
    for row in rows:
        if not 0 <= row < n_rows:
            raise IndexError(f"row {row} out of range [0, {n_rows})")
    return rows


class Crossbar:
    """A rows x cols memristive crossbar.

    Args:
        rows: number of word lines.
        cols: number of bit lines.
        params: device resistance window and thresholds.
        read_voltage_volts: word-line read voltage Vr; must sit inside
            the device dead zone so reads are non-destructive.
        variability: optional lognormal resistance spread applied on every
            programming event.
        rng: random generator, required when ``variability`` is given.

    Attributes:
        bits: the stored logic values, int8 array of shape (rows, cols).
        resistances: per-cell programmed resistance in ohms, same shape.
        program_cycles: per-cell count of programming events (endurance
            accounting; reads are free, as the paper notes).
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        params: DeviceParameters | None = None,
        read_voltage_volts: float = 0.2,
        variability: VariabilityModel | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if rows < 1 or cols < 1:
            raise ValueError("crossbar must have at least one row and column")
        self.params = params or DeviceParameters()
        # Positivity is the more fundamental requirement, so it is checked
        # first: a non-positive voltage that also falls outside the dead
        # zone should not be reported as a disturb hazard.
        if read_voltage_volts <= 0:
            raise ValueError("read voltage must be positive")
        if not (-self.params.v_reset
                < read_voltage_volts < self.params.v_set):
            raise ValueError(
                f"read voltage {read_voltage_volts} V would disturb "
                f"stored data "
                f"(dead zone is ({-self.params.v_reset}, {self.params.v_set}))"
            )
        self.rows = rows
        self.cols = cols
        self.read_voltage = read_voltage_volts
        self.variability = variability
        self.rng = rng
        if variability is not None and rng is None:
            raise ValueError("a numpy Generator is required with variability")
        self.bits = np.zeros((rows, cols), dtype=np.int8)
        self.resistances = sample_resistances(
            np.zeros((rows, cols), dtype=bool), self.params, variability, rng
        )
        self.program_cycles = np.zeros((rows, cols), dtype=np.int64)
        self._stuck_mask = np.zeros((rows, cols), dtype=bool)

    # -- shape helpers ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, self.cols

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise IndexError(f"row {row} out of range [0, {self.rows})")

    # -- programming -------------------------------------------------------

    def write_row(self, row: int, bits: Sequence[int] | np.ndarray) -> None:
        """Program a full word line; counts one cycle on changed cells."""
        self._check_row(row)
        new_bits = np.asarray(bits)
        if new_bits.shape != (self.cols,):
            raise ValueError(
                f"expected {self.cols} bits, got shape {new_bits.shape}"
            )
        new_bits = as_bits(new_bits)
        writable = ~self._stuck_mask[row]
        changed = (self.bits[row] != new_bits) & writable
        self.bits[row, writable] = new_bits[writable]
        self.program_cycles[row, changed] += 1
        sampled = sample_resistances(
            self.bits[row].astype(bool), self.params, self.variability, self.rng
        )
        self.resistances[row, writable] = sampled[writable]

    def write(self, row: int, col: int, bit: int) -> None:
        """Program a single cell."""
        self._check_row(row)
        if not 0 <= col < self.cols:
            raise IndexError(f"column {col} out of range [0, {self.cols})")
        if bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        if self._stuck_mask[row, col]:
            return
        if self.bits[row, col] != bit:
            self.program_cycles[row, col] += 1
        self.bits[row, col] = bit
        self.resistances[row, col] = float(
            sample_resistances(
                np.array([bool(bit)]), self.params, self.variability, self.rng
            )[0]
        )

    def write_rows(
        self, rows: Sequence[int], bits: np.ndarray
    ) -> None:
        """Program several word lines in one vectorized call.

        Equal, bit for bit, to calling :meth:`write_row` once per row in
        the order given: stored bits, cycle counts, stuck-cell masking
        and resistances, and with a ``variability`` model the generator
        ends in the same state (:func:`sample_resistance_rows` draws
        the whole block in the looped order).

        Args:
            rows: distinct word-line indices, one per row of ``bits``.
            bits: (k, cols) 0/1 matrix; row ``i`` programs ``rows[i]``.
        """
        idx, new_bits = self._checked_rows(rows, bits)
        current = self.bits[idx]
        writable = ~self._stuck_mask[idx]
        changed = (current != new_bits) & writable
        stored = np.where(writable, new_bits, current)
        self.bits[idx] = stored
        self.program_cycles[idx] += changed
        sampled = sample_resistance_rows(
            stored, self.params, self.variability, self.rng
        )
        self.resistances[idx] = np.where(
            writable, sampled, self.resistances[idx]
        )

    def _checked_rows(
        self, rows: Sequence[int], bits: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The row indices and int8 bits of a :meth:`write_rows` call."""
        idx = np.asarray(rows, dtype=int)
        if idx.ndim != 1:
            raise ValueError("rows must be a 1-D index sequence")
        if len(np.unique(idx)) != idx.size:
            raise ValueError("duplicate rows in batched write")
        outside = idx[(idx < 0) | (idx >= self.rows)]
        if outside.size:
            self._check_row(int(outside[0]))
        new_bits = np.asarray(bits)
        if new_bits.shape != (idx.size, self.cols):
            raise ValueError(
                f"expected shape {(idx.size, self.cols)}, "
                f"got {new_bits.shape}"
            )
        return idx, as_bits(new_bits)

    def load_matrix(self, bits: np.ndarray) -> None:
        """Program the whole array from a (rows, cols) 0/1 matrix.

        One :meth:`write_rows` over every word line, top to bottom.
        """
        bits = np.asarray(bits)
        if bits.shape != (self.rows, self.cols):
            raise ValueError(
                f"expected shape {(self.rows, self.cols)}, got {bits.shape}"
            )
        self.write_rows(range(self.rows), bits)

    # -- fault injection ---------------------------------------------------

    def inject_stuck_fault(self, row: int, col: int, stuck_bit: int) -> None:
        """Freeze a cell at ``stuck_bit``; later writes silently fail.

        Models endurance-failure or fabrication defects for the robustness
        benches.
        """
        self._check_row(row)
        self.bits[row, col] = stuck_bit
        self.resistances[row, col] = (
            self.params.r_on if stuck_bit else self.params.r_off
        )
        self._stuck_mask[row, col] = True

    def inject_stuck_cells(
        self, rows: np.ndarray, cols: np.ndarray, stuck_bits: np.ndarray
    ) -> None:
        """Freeze many cells in one vectorized pass.

        Equivalent to calling :meth:`inject_stuck_fault` once per
        ``(rows[i], cols[i], stuck_bits[i])`` triple; the triples must
        not repeat a cell (campaigns sample without replacement).
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        stuck = np.asarray(stuck_bits, dtype=np.int64)
        if rows.size and (
                rows.min() < 0 or rows.max() >= self.rows
                or cols.min() < 0 or cols.max() >= self.cols):
            raise ValueError("cell index out of range")
        self.bits[rows, cols] = stuck.astype(self.bits.dtype)
        self.resistances[rows, cols] = np.where(
            stuck.astype(bool), self.params.r_on, self.params.r_off)
        self._stuck_mask[rows, cols] = True

    def apply_resistance_drift(self, factor: np.ndarray | float) -> None:
        """Multiply all cell resistances by ``factor`` (retention drift)."""
        self.resistances = self.resistances * factor

    # -- reads -------------------------------------------------------------

    def column_currents(self, active_rows: Sequence[int]) -> np.ndarray:
        """Bit-line currents with the given word lines activated.

        This is the crossbar's core primitive: all other read modes (memory
        read, scouting logic gates, AP dot product) are interpretations of
        this current vector by a sense amplifier.

        Args:
            active_rows: indices of simultaneously activated word lines.

        Returns:
            Array of shape (cols,): ``I_j = sum_i Vr / R[i, j]`` in amperes,
            the conductances folded left in activation order.
        """
        rows = self._validated_rows(active_rows)
        conductance = 1.0 / self.resistances[rows, :]
        # A cumulative sum folds strictly left to right; ``sum(axis=0)``
        # would add 8 or more rows of a one-column array pairwise.
        return self.read_voltage * np.cumsum(conductance, axis=0)[-1]

    def read_row(self, row: int) -> np.ndarray:
        """Conventional single-row memory read, returning stored bits.

        The SA reference sits at the geometric mean of the two single-cell
        current levels, maximizing margin in the log domain.
        """
        currents = self.column_currents([row])
        i_ref = sense_reference_current(self.params, self.read_voltage)
        return (currents > i_ref).astype(np.int8)

    def stored_word(self, row: int) -> np.ndarray:
        """The programmed bits of a row (bypasses the electrical read)."""
        self._check_row(row)
        return self.bits[row].copy()

    def _validated_rows(self, active_rows: Sequence[int]) -> list[int]:
        return _validated_activation_rows(active_rows, self.rows)

    # -- endurance summary ---------------------------------------------------

    def max_program_cycles(self) -> int:
        """Worst-case per-cell programming count (endurance hotspot)."""
        return int(self.program_cycles.max())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Crossbar({self.rows}x{self.cols}, Vr={self.read_voltage} V)"


class CrossbarStack:
    """B independent logical crossbars executed as one (B, rows, cols) stack.

    The batch-execution substrate: every read or write services all B
    logical arrays in a single vectorized numpy operation, which is how
    the paper's accelerators amortize control overhead over many
    concurrent workloads.  The electrical model, cycle counting and
    decision thresholds are identical to B separate :class:`Crossbar`
    instances with the same parameters -- per-item results are bit-exact
    with the looped equivalent (the property tests in
    ``tests/mvp/test_batch_equivalence.py`` enforce this).

    Stacks model ideal two-point resistances only: variability and
    stuck-fault injection remain features of the single :class:`Crossbar`.
    So a stack stores bits and wear alone; each cell's resistance is
    ``r_on`` or ``r_off`` by its bit.  A read therefore depends only on
    each column's bit pattern across the activated rows, and looks its
    current up by that pattern (see :meth:`column_currents`).  Wear is
    kept word-line-major, so a write updates one contiguous block.

    Args:
        batch: number of logical arrays B.
        rows: word lines per logical array.
        cols: bit lines per logical array.
        params: shared device resistance window and thresholds.
        read_voltage_volts: shared word-line read voltage.

    Attributes:
        bits: stored logic values, int8 (batch, rows, cols).
        program_cycles: per-cell programming-event counts, int64, same
            shape (a read-only view of the word-line-major wear).
    """

    #: Activated rows whose bits index the read table; each row past
    #: them folds on with one add.
    _TABLE_BITS = 8

    def __init__(
        self,
        batch: int,
        rows: int,
        cols: int,
        params: DeviceParameters | None = None,
        read_voltage_volts: float = 0.2,
    ) -> None:
        if batch < 1:
            raise ValueError("stack must hold at least one logical array")
        if rows < 1 or cols < 1:
            raise ValueError("crossbar must have at least one row and column")
        self.params = params or DeviceParameters()
        if read_voltage_volts <= 0:
            raise ValueError("read voltage must be positive")
        if not (-self.params.v_reset
                < read_voltage_volts < self.params.v_set):
            raise ValueError(
                f"read voltage {read_voltage_volts} V would disturb "
                f"stored data "
                f"(dead zone is ({-self.params.v_reset}, {self.params.v_set}))"
            )
        self.batch = batch
        self.rows = rows
        self.cols = cols
        self.read_voltage = read_voltage_volts
        self.bits = np.zeros((batch, rows, cols), dtype=np.int8)
        # Wear, word line first: (rows, batch, cols).
        self._wear = np.zeros((rows, batch, cols), dtype=np.int64)
        # Indexed by a stored bit: 1 / r_off for a 0, 1 / r_on for a 1.
        self._conductance = 1.0 / np.array(
            [self.params.r_off, self.params.r_on], dtype=np.float64)
        # _folds[k - 1][p]: the conductance sum of k activated rows
        # whose bits, in activation order, are the bits of p from the
        # lowest up -- the left fold g[b0] + g[b1] + ... (the new top
        # bit's conductance is added last).  _currents holds the same
        # sums times the read voltage.
        folds = [np.zeros(1)]
        for _ in range(min(self._TABLE_BITS, rows)):
            folds.append(np.concatenate(
                [folds[-1] + self._conductance[0],
                 folds[-1] + self._conductance[1]]))
        self._folds = folds[1:]
        self._currents = [self.read_voltage * f for f in self._folds]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.batch, self.rows, self.cols

    @property
    def program_cycles(self) -> np.ndarray:
        """Per-cell programming-event counts, int64 (batch, rows, cols).

        A read-only view of the (rows, batch, cols) wear buffer, in
        which one word-line write updates one contiguous block.
        """
        cycles = self._wear.transpose(1, 0, 2)
        cycles.setflags(write=False)
        return cycles

    @property
    def resistances(self) -> np.ndarray:
        """Programmed resistances in ohms, derived from the bits.

        A read-only float64 (batch, rows, cols) array: ``r_on`` where a
        cell stores 1, ``r_off`` where it stores 0.
        """
        r = np.where(self.bits, np.float64(self.params.r_on),
                     np.float64(self.params.r_off))
        r.setflags(write=False)
        return r

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise IndexError(f"row {row} out of range [0, {self.rows})")

    # -- programming -------------------------------------------------------

    def write_row(self, row: int, bits: np.ndarray) -> None:
        """Program one word line of every logical array at once.

        Args:
            row: word-line index, shared across the batch.
            bits: (batch, cols) per-array words, or (cols,) broadcast to
                the whole batch.
        """
        self._check_row(row)
        new_bits = _stack_word(bits, self.batch, self.cols)
        stored = self.bits[:, row, :]
        self._wear[row] += stored != new_bits
        stored[...] = new_bits

    def load_tensor(self, bits: np.ndarray) -> None:
        """Program the whole stack from a (batch, rows, cols) 0/1 tensor."""
        bits = np.asarray(bits)
        if bits.shape != self.shape:
            raise ValueError(f"expected shape {self.shape}, got {bits.shape}")
        for row in range(self.rows):
            self.write_row(row, bits[:, row, :])

    # -- reads -------------------------------------------------------------

    def column_currents(self, active_rows: Sequence[int]) -> np.ndarray:
        """Bit-line currents of every logical array for one activation set.

        Same contract as :meth:`Crossbar.column_currents`, vectorized over
        the batch axis.  A column's current is ``Vr`` times the left fold
        of its activated cells' conductances in activation order, and
        depends only on their bits: the bits of the first
        ``_TABLE_BITS`` activated rows form one integer per (item,
        column), which indexes a table of every such sum.  Each row
        past the table's width folds on with one add.  These are the
        floats that adding each activated cell's ``1.0 / resistance``
        in activation order gives, as :meth:`Crossbar.column_currents`
        does.

        Returns:
            (batch, cols) currents.
        """
        rows = _validated_activation_rows(active_rows, self.rows)
        head, tail = rows[:self._TABLE_BITS], rows[self._TABLE_BITS:]
        bits = self.bits.view(np.uint8)
        pattern = bits[:, head[0], :].copy()
        for shift, row in enumerate(head[1:], 1):
            pattern |= bits[:, row, :] << shift
        pattern = pattern.astype(np.intp)
        if not tail:
            return np.take(self._currents[len(head) - 1], pattern)
        summed = np.take(self._folds[-1], pattern)
        for row in tail:
            summed += np.take(self._conductance,
                              bits[:, row, :].astype(np.intp))
        return self.read_voltage * summed

    def read_row(self, row: int) -> np.ndarray:
        """Single-row memory read of every logical array, returning bits."""
        currents = self.column_currents([row])
        i_ref = sense_reference_current(self.params, self.read_voltage)
        return (currents > i_ref).astype(np.int8)

    def stored_word(self, row: int) -> np.ndarray:
        """The programmed bits of a row across the batch (non-electrical)."""
        self._check_row(row)
        return self.bits[:, row, :].copy()

    def max_program_cycles(self) -> int:
        """Worst-case per-cell programming count over the whole stack."""
        return int(self._wear.max())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CrossbarStack({self.batch}x{self.rows}x{self.cols}, "
            f"Vr={self.read_voltage} V)"
        )
