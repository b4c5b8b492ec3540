"""Scouting logic: OR / AND / XOR as multi-row crossbar reads (Fig. 3).

Scouting logic [Xie et al., ISVLSI'17; paper ref 14] turns a memory read
into a logic operation: activate the word lines of the operand rows
simultaneously and compare the summed bit-line current against one (OR,
AND) or two (XOR) reference currents.

With ``k`` activated rows of which ``m`` store logic 1, the bit-line current
is ``I(m) = m * Vr/R_L + (k - m) * Vr/R_H``.  Since R_H >> R_L the current
levels are well separated and the references sit between adjacent levels:

* OR:  1 iff m >= 1; reference between I(0) and I(1);
* AND: 1 iff m == k; reference between I(k-1) and I(k);
* XOR (k = 2): 1 iff m == 1; a window comparator between (I(0), I(1)) and
  (I(1), I(2)).

References are placed at *geometric* means, which maximizes relative margin
under the multiplicative (lognormal) resistance spread of real devices.

The whole bit line computes in parallel: one activation yields the gate
output for every column -- this is the vector parallelism the MVP exploits.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Sequence

import numpy as np

from repro.circuits.sense_amp import CurrentCompareSA, WindowComparatorSA

__all__ = ["ReferenceLadder", "ScoutingLogic", "ScoutingEnergyModel"]


@dataclasses.dataclass(frozen=True)
class ReferenceLadder:
    """Reference currents for k-row scouting operations.

    Attributes:
        k: number of simultaneously activated rows.
        levels: the k+1 ideal current levels I(0) ... I(k) in amperes.
        i_ref_or: reference separating m = 0 from m >= 1.
        i_ref_and: reference separating m = k-1 from m = k.
    """

    k: int
    levels: tuple[float, ...]
    i_ref_or: float
    i_ref_and: float

    @classmethod
    def build(
        cls, k: int, read_voltage: float, r_on: float, r_off: float
    ) -> "ReferenceLadder":
        """Compute the current levels and references for ``k`` rows."""
        if k < 1:
            raise ValueError("need at least one activated row")
        i_on = read_voltage / r_on
        i_off = read_voltage / r_off
        levels = tuple(m * i_on + (k - m) * i_off for m in range(k + 1))
        i_ref_or = math.sqrt(levels[0] * levels[1])
        i_ref_and = math.sqrt(levels[k - 1] * levels[k]) if k >= 2 else i_ref_or
        return cls(k=k, levels=levels, i_ref_or=i_ref_or, i_ref_and=i_ref_and)

    def margin_or(self) -> float:
        """Smallest current gap the OR reference must discriminate."""
        return min(self.i_ref_or - self.levels[0],
                   self.levels[1] - self.i_ref_or)

    def margin_and(self) -> float:
        """Smallest current gap the AND reference must discriminate."""
        return min(self.i_ref_and - self.levels[self.k - 1],
                   self.levels[self.k] - self.i_ref_and)


@functools.lru_cache(maxsize=256)
def _ladder(k: int, read_voltage: float, r_on: float,
            r_off: float) -> ReferenceLadder:
    """:meth:`ReferenceLadder.build`, built once per distinct key."""
    return ReferenceLadder.build(k, read_voltage, r_on, r_off)


class ScoutingLogic:
    """Executes scouting-logic operations on a :class:`Crossbar`.

    The gates are shape-polymorphic: the array may also be a
    :class:`~repro.crossbar.array.CrossbarStack`, in which case every
    gate evaluates all B logical arrays in one activation and returns a
    (B, cols) result -- the sense-amp decisions are applied to whatever
    current array the substrate produces.

    Args:
        crossbar: the array (or stack) holding operand rows.
        sa_offset: input-referred sense-amp offset in amperes, used for
            margin accounting (not decision flips; see
            :meth:`worst_case_margin`).
    """

    def __init__(self, crossbar, sa_offset: float = 0.0) -> None:
        self.crossbar = crossbar
        self.sa_offset = sa_offset

    # -- reference construction ------------------------------------------

    def ladder(self, k: int) -> ReferenceLadder:
        """Reference ladder for ``k`` activated rows of this crossbar.

        Ladders are immutable, so one is shared by every gate (and
        every processor) that reads the same (k, read voltage, r_on,
        r_off).
        """
        return _ladder(
            k,
            self.crossbar.read_voltage,
            self.crossbar.params.r_on,
            self.crossbar.params.r_off,
        )

    # -- gates -------------------------------------------------------------

    def or_rows(self, rows: Sequence[int]) -> np.ndarray:
        """Bitwise OR of the stored words in ``rows`` (per-column, parallel)."""
        rows = list(rows)
        currents = self.crossbar.column_currents(rows)
        sa = CurrentCompareSA(self.ladder(len(rows)).i_ref_or, self.sa_offset)
        return sa.output_array(currents)

    def and_rows(self, rows: Sequence[int]) -> np.ndarray:
        """Bitwise AND of the stored words in ``rows``."""
        rows = list(rows)
        currents = self.crossbar.column_currents(rows)
        sa = CurrentCompareSA(self.ladder(len(rows)).i_ref_and, self.sa_offset)
        return sa.output_array(currents)

    def xor_rows(self, row_a: int, row_b: int) -> np.ndarray:
        """Bitwise XOR of two rows via the two-reference window comparator."""
        ladder = self.ladder(2)
        currents = self.crossbar.column_currents([row_a, row_b])
        sa = WindowComparatorSA(ladder.i_ref_or, ladder.i_ref_and,
                                self.sa_offset)
        return sa.output_array(currents)

    def nor_rows(self, rows: Sequence[int]) -> np.ndarray:
        """Bitwise NOR: the OR read with the SA output inverted.

        Sense amplifiers provide both output polarities for free, so the
        inverted gates cost exactly one activation too (ref [14]).
        """
        return (1 - self.or_rows(rows)).astype(np.int8)

    def nand_rows(self, rows: Sequence[int]) -> np.ndarray:
        """Bitwise NAND: the AND read with the SA output inverted."""
        return (1 - self.and_rows(rows)).astype(np.int8)

    def majority_rows(self, rows: Sequence[int]) -> np.ndarray:
        """Bitwise majority of an odd number of rows in ONE activation.

        With k activated rows the current level counts the stored ones
        ``m``; a single reference between I(k//2) and I(k//2 + 1) reads
        out ``m > k/2``.  Majority-of-3 is the carry function, which is
        what makes the fast in-memory adder possible.
        """
        rows = list(rows)
        if len(rows) % 2 == 0:
            raise ValueError("majority needs an odd number of rows")
        ladder = self.ladder(len(rows))
        half = len(rows) // 2
        i_ref = math.sqrt(ladder.levels[half] * ladder.levels[half + 1])
        currents = self.crossbar.column_currents(rows)
        sa = CurrentCompareSA(i_ref, self.sa_offset)
        return sa.output_array(currents)

    def xor3_rows(self, rows: Sequence[int]) -> np.ndarray:
        """Three-input parity in ONE activation (two reference windows).

        Output 1 iff the stored-one count m is odd, i.e. m in {1, 3}:
        a window comparator between I(0)/I(1) and I(1)/I(2) catches
        m = 1, a plain comparator above I(2)/I(3) catches m = 3.
        """
        rows = list(rows)
        if len(rows) != 3:
            raise ValueError("xor3 takes exactly three rows")
        ladder = self.ladder(3)
        refs = [
            math.sqrt(ladder.levels[m] * ladder.levels[m + 1])
            for m in range(3)
        ]
        currents = self.crossbar.column_currents(rows)
        window_one = WindowComparatorSA(refs[0], refs[1], self.sa_offset)
        above_two = CurrentCompareSA(refs[2], self.sa_offset)
        return window_one.output_array(currents) | above_two.output_array(
            currents
        )

    def read(self, row: int) -> np.ndarray:
        """Plain memory read expressed as a 1-row scouting operation."""
        return self.or_rows([row])

    # -- margin analysis -----------------------------------------------------

    def worst_case_margin(self, rows: Sequence[int], gate: str) -> float:
        """Smallest SA margin (amperes) over all columns for a gate.

        Negative margins mean the sampled cell resistances have pushed some
        column's current within the SA offset of a reference -- a potential
        output flip.  The Fig. 3 bench sweeps this against the R_H/R_L
        window.
        """
        rows = list(rows)
        currents = self.crossbar.column_currents(rows)
        ladder = self.ladder(len(rows))
        if gate == "or":
            sa = CurrentCompareSA(ladder.i_ref_or, self.sa_offset)
        elif gate == "and":
            sa = CurrentCompareSA(ladder.i_ref_and, self.sa_offset)
        elif gate == "xor":
            if len(rows) != 2:
                raise ValueError("xor is defined for exactly two rows")
            sa = WindowComparatorSA(ladder.i_ref_or, ladder.i_ref_and,
                                    self.sa_offset)
        else:
            raise ValueError(f"unknown gate {gate!r}")
        return float(sa.margin_array(currents).min())


@dataclasses.dataclass(frozen=True)
class ScoutingEnergyModel:
    """First-order energy/latency cost of one scouting operation.

    One operation = one multi-row activated read over all columns.  The
    dominant costs are the bit-line swing and the SA evaluation, both per
    column; the word-line drivers amortize across columns.

    Attributes:
        energy_per_column_joules: joules per bit-line per activation.
        latency_seconds: seconds per activation (all columns in
            parallel).
    """

    energy_per_column_joules: float = 0.1e-12
    latency_seconds: float = 10e-9

    def operation_energy(self, columns: int) -> float:
        """Energy of one k-row activation across ``columns`` bit lines."""
        if columns < 1:
            raise ValueError("columns must be positive")
        return self.energy_per_column_joules * columns

    def bit_ops_per_activation(self, columns: int) -> int:
        """Logical bit-operations delivered by one activation."""
        return columns
