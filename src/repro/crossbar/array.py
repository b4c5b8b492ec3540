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
    if raw.dtype != np.bool_ and not ((raw == 0) | (raw == 1)).all():
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
            Array of shape (cols,): ``I_j = sum_i Vr / R[i, j]`` in amperes.
        """
        rows = self._validated_rows(active_rows)
        conductance = 1.0 / self.resistances[rows, :]
        return self.read_voltage * conductance.sum(axis=0)

    def batched_column_currents(self, row_sets) -> np.ndarray:
        """Bit-line currents for B activation sets in one call.

        The batched counterpart of :meth:`column_currents`: each row of
        ``row_sets`` is an independent activation pattern, and the whole
        batch is serviced by one fancy-indexed numpy reduction.  The
        per-set currents are bit-identical to B separate
        :meth:`column_currents` calls (same operands, same reduction
        axis), which the batch engines rely on for exact equivalence.

        Args:
            row_sets: (B, k) integer array; row b lists the k word lines
                activated in logical read b.

        Returns:
            (B, cols) currents: ``I[b, j] = sum_i Vr / R[row_sets[b, i], j]``.
        """
        sets = np.asarray(row_sets, dtype=int)
        if sets.ndim != 2 or sets.shape[1] < 1:
            raise ValueError("row_sets must be a (B, k) index array, k >= 1")
        if ((sets < 0) | (sets >= self.rows)).any():
            raise IndexError(f"row index out of range [0, {self.rows})")
        sorted_sets = np.sort(sets, axis=1)
        if (sorted_sets[:, 1:] == sorted_sets[:, :-1]).any():
            raise ValueError("duplicate rows in an activation set")
        conductance = 1.0 / self.resistances[sets, :]
        return self.read_voltage * conductance.sum(axis=1)

    def masked_column_currents(self, masks: np.ndarray) -> np.ndarray:
        """Bit-line currents for B boolean activation masks (matmul form).

        Masked-stack semantics for dot-product-style workloads where each
        logical read may activate a different *number* of rows: the batch
        collapses to one (B, rows) x (rows, cols) matrix product over the
        conductance matrix.  Float rounding may differ from
        :meth:`column_currents` at the last ulp (different reduction
        order), which thresholded reads are insensitive to.

        Args:
            masks: (B, rows) boolean array; True activates the word line.

        Returns:
            (B, cols) currents.
        """
        masks = np.asarray(masks, dtype=bool)
        if masks.ndim != 2 or masks.shape[1] != self.rows:
            raise ValueError(f"masks must be (B, {self.rows})")
        if not masks.any(axis=1).all():
            raise ValueError("every mask must activate at least one row")
        return self.read_voltage * (
            masks.astype(float) @ (1.0 / self.resistances)
        )

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

    Args:
        batch: number of logical arrays B.
        rows: word lines per logical array.
        cols: bit lines per logical array.
        params: shared device resistance window and thresholds.
        read_voltage_volts: shared word-line read voltage.

    Attributes:
        bits: stored logic values, int8 (batch, rows, cols).
        resistances: programmed resistances in ohms, same shape.
        program_cycles: per-cell programming-event counts, same shape.
    """

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
        self.resistances = np.full(
            (batch, rows, cols), float(self.params.r_off)
        )
        self.program_cycles = np.zeros((batch, rows, cols), dtype=np.int64)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.batch, self.rows, self.cols

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
        changed = self.bits[:, row, :] != new_bits
        self.bits[:, row, :] = new_bits
        self.program_cycles[:, row, :] += changed
        self.resistances[:, row, :] = np.where(
            new_bits, self.params.r_on, self.params.r_off)

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
        the batch axis: selecting the activated rows then reducing over
        the row axis keeps each item's float arithmetic identical to a
        single-array read.

        Returns:
            (batch, cols) currents.
        """
        rows = _validated_activation_rows(active_rows, self.rows)
        conductance = 1.0 / self.resistances[:, rows, :]
        return self.read_voltage * conductance.sum(axis=1)

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
        return int(self.program_cycles.max())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CrossbarStack({self.batch}x{self.rows}x{self.cols}, "
            f"Vr={self.read_voltage} V)"
        )
