"""Functional MVP: executes macro-instructions on a memristive crossbar.

The processor owns a crossbar, a reserved all-ones constant row (so NOT
can be computed as XOR with ones), a result buffer modelling the
sense-amplifier latch row, and cost counters (activations, program
cycles, energy, time) fed by first-order cost models.

Results of logic instructions land in the result buffer; ``VSTORE`` writes
the buffer back into the array (costing program cycles -- the endurance-
relevant events), and ``VREAD``/``POPCOUNT`` return data to the host.

The ISA works over the fabric's leading axes, as
:class:`~repro.crossbar.ScoutingLogic` does.  On a stack of B logical
crossbars every activation, write-back and sense-amp decision serves all
B items at once: the result buffer is (B, cols), ``VREAD`` returns
(B, cols) words, ``POPCOUNT`` a (B,) count vector, and a ``VLOAD``
payload is one (cols,) word for all items or a (B, cols) matrix.
Activations and time are shared; program cycles and energy depend on
each item's data and are kept per item, so an item's record does not
depend on which items share its stack -- what the sharded executor
(:mod:`repro.parallel`) builds on.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.crossbar import (
    Crossbar,
    CrossbarStack,
    NonidealCrossbarStack,
    ScoutingEnergyModel,
    ScoutingLogic,
)
from repro.mvp.isa import Instruction, validate_program

__all__ = ["BatchedMVPProcessor", "MVPStats", "MVPProcessor"]

# First-order write cost: programming is the slow, power-hungry phase the
# paper flags (Section IV-C): ~10 ns and ~10 pJ per programmed cell.
_WRITE_ENERGY_PER_CELL = 10e-12
_WRITE_LATENCY = 10e-9


@dataclasses.dataclass
class MVPStats:
    """Cost counters accumulated across executed instructions.

    Attributes:
        instructions: macro-instructions executed.
        activations: multi-row read activations (one per logic/read op).
        program_cycles: cell programming events issued (endurance wear).
        bit_operations: logical bit-operations completed.
        energy_joules: accumulated energy estimate, joules.
        time_seconds: accumulated latency estimate, seconds.
    """

    instructions: int = 0
    activations: int = 0
    program_cycles: int = 0
    bit_operations: int = 0
    energy_joules: float = 0.0
    time_seconds: float = 0.0

    @property
    def latency_seconds(self) -> float:
        """Canonical unit accessor: accumulated latency, seconds."""
        return self.time_seconds

    def merged_with(self, other: "MVPStats") -> "MVPStats":
        """Element-wise sum of two counter sets."""
        return MVPStats(
            instructions=self.instructions + other.instructions,
            activations=self.activations + other.activations,
            program_cycles=self.program_cycles + other.program_cycles,
            bit_operations=self.bit_operations + other.bit_operations,
            energy_joules=self.energy_joules + other.energy_joules,
            time_seconds=self.time_seconds + other.time_seconds,
        )


class MVPProcessor:
    """Executes MVP macro-instruction programs.

    Args:
        crossbar: the storage/compute array: one crossbar, or a stack of
            B logical crossbars that every instruction drives at once.
            The *last* row is reserved by the processor for the all-ones
            constant used by ``VNOT``.
        energy_model: per-activation cost model (shared by all items).
        activation_latency_seconds: seconds per multi-row read.

    Attributes:
        batch: B on a stack, None on a single crossbar.
        result: the sense-amp latch row, (cols,) or (B, cols).
    """

    def __init__(
        self,
        crossbar: Crossbar | CrossbarStack | NonidealCrossbarStack,
        energy_model: ScoutingEnergyModel | None = None,
        activation_latency_seconds: float = 100e-9,
    ) -> None:
        if crossbar.rows < 2:
            raise ValueError("crossbar needs >= 2 rows (one is reserved)")
        self.crossbar = crossbar
        self.batch = getattr(crossbar, "batch", None)
        self.logic = ScoutingLogic(crossbar)
        self.energy_model = energy_model or ScoutingEnergyModel()
        self.activation_latency_seconds = activation_latency_seconds
        self._ones_row = crossbar.rows - 1
        crossbar.write_row(self._ones_row,
                           np.ones(crossbar.cols, dtype=np.int8))
        items = () if self.batch is None else (self.batch,)
        self.result = np.zeros(items + (crossbar.cols,), dtype=np.int8)
        # Shared counters (identical across items by construction) ...
        self._instructions = 0
        self._activations = 0
        self._bit_operations = 0
        self._time = 0.0
        # ... and data-dependent per-item counters.  (Programming the
        # reserved ones row is setup, not program cost.)
        self._program_cycles = np.zeros(self.batch or 1, dtype=np.int64)
        self._energy = np.zeros(self.batch or 1)

    @property
    def usable_rows(self) -> int:
        """Rows available to programs (the constant row is reserved)."""
        return self.crossbar.rows - 1

    # -- cost accounting ------------------------------------------------------

    @property
    def stats(self) -> MVPStats:
        """The cost counters of a single-crossbar processor.

        Raises:
            TypeError: on a stack, which keeps one record per item: read
                :meth:`stats_for` or :meth:`total_stats` there.
        """
        if self.batch is not None:
            raise TypeError(
                "a stack-backed processor keeps one record per item; "
                "read stats_for(item) or total_stats()"
            )
        return self.stats_for(0)

    def stats_for(self, item: int) -> MVPStats:
        """The cost counters of logical array ``item``.

        Matches, field for field, what a processor running only this
        item's workload on its own crossbar accumulates.
        """
        if not 0 <= item < len(self._energy):
            raise IndexError(
                f"item {item} out of range [0, {len(self._energy)})")
        return MVPStats(
            instructions=self._instructions,
            activations=self._activations,
            program_cycles=int(self._program_cycles[item]),
            bit_operations=self._bit_operations,
            energy_joules=float(self._energy[item]),
            time_seconds=self._time,
        )

    def total_stats(self) -> MVPStats:
        """Every item's counters merged (whole-batch roll-up)."""
        total = MVPStats()
        for item in range(len(self._energy)):
            total = total.merged_with(self.stats_for(item))
        return total

    def _charge_activation(self) -> None:
        cols = self.crossbar.cols
        self._activations += 1
        self._bit_operations += cols
        self._energy += self.energy_model.operation_energy(cols)
        self._time += self.activation_latency_seconds

    def _charge_write(self, cells: np.ndarray | int) -> None:
        self._program_cycles += cells
        self._energy += cells * _WRITE_ENERGY_PER_CELL
        self._time += _WRITE_LATENCY

    # -- execution ------------------------------------------------------------

    def execute(self, program: Sequence[Instruction]) -> list:
        """Validate then run a program, collecting host-bound results.

        ``VREAD`` yields the row bits and ``POPCOUNT`` the count of ones
        in the result buffer; the other opcodes yield nothing.
        """
        validate_program(program, rows=self.usable_rows,
                         cols=self.crossbar.cols, batch=self.batch)
        outputs = []
        for instr in program:
            self._instructions += 1
            value = getattr(self, f"_{instr.opcode.value}")(instr)
            if value is not None:
                outputs.append(value)
        return outputs

    # -- opcode handlers ------------------------------------------------------

    def _vload(self, instr: Instruction) -> None:
        self.crossbar.write_row(instr.rows[0], instr.data)
        # Every item programs every column: one scalar charge for all.
        self._charge_write(self.crossbar.cols)

    def _vread(self, instr: Instruction) -> np.ndarray:
        self._charge_activation()
        return self.logic.read(instr.rows[0])

    def _vor(self, instr: Instruction) -> None:
        self._charge_activation()
        self.result = self.logic.or_rows(instr.rows)

    def _vand(self, instr: Instruction) -> None:
        self._charge_activation()
        self.result = self.logic.and_rows(instr.rows)

    def _vxor(self, instr: Instruction) -> None:
        self._charge_activation()
        self.result = self.logic.xor_rows(*instr.rows)

    def _vmaj(self, instr: Instruction) -> None:
        self._charge_activation()
        self.result = self.logic.majority_rows(instr.rows)

    def _vxor3(self, instr: Instruction) -> None:
        self._charge_activation()
        self.result = self.logic.xor3_rows(instr.rows)

    def _vnot(self, instr: Instruction) -> None:
        # NOT(x) == x XOR 1, using the reserved all-ones row.
        self._charge_activation()
        self.result = self.logic.xor_rows(instr.rows[0], self._ones_row)

    def _vstore(self, instr: Instruction) -> None:
        row = instr.rows[0]
        # stored_word keeps this cheap on composite stacks (the nonideal
        # fabric materializes `bits` per item): only the row is needed
        # for each item's changed-cell count.
        changed = (self.crossbar.stored_word(row) != self.result).sum(-1)
        self.crossbar.write_row(row, self.result)
        self._charge_write(changed)

    def _popcount(self, instr: Instruction) -> np.ndarray | int:
        # The count is folded on the host side from the SA outputs; charge
        # no array activation (the buffer is already latched).
        counts = self.result.sum(axis=-1, dtype=np.int64)
        return int(counts) if self.batch is None else counts


class BatchedMVPProcessor(MVPProcessor):
    """An :class:`MVPProcessor` that requires a stack of crossbars."""

    def __init__(
        self, stack: CrossbarStack | NonidealCrossbarStack, *args, **kwargs
    ) -> None:
        if getattr(stack, "batch", None) is None:
            raise TypeError(
                "BatchedMVPProcessor needs a CrossbarStack or "
                "NonidealCrossbarStack"
            )
        super().__init__(stack, *args, **kwargs)
