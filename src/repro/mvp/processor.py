"""Functional MVP: executes macro-instructions on a memristive crossbar.

The processor owns a :class:`~repro.crossbar.Crossbar`, a reserved all-ones
constant row (so NOT can be computed as XOR with ones), a result buffer
modelling the sense-amplifier latch row, and cost counters (activations,
program cycles, energy, time) fed by first-order cost models.

Results of logic instructions land in the result buffer; ``VSTORE`` writes
the buffer back into the array (costing program cycles -- the endurance-
relevant events), and ``VREAD``/``POPCOUNT`` return data to the host.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.crossbar import Crossbar, ScoutingEnergyModel, ScoutingLogic
from repro.mvp.isa import Instruction, Opcode, validate_program

__all__ = ["MVPStats", "MVPProcessor"]

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


def opcode_table(cls):
    """Class decorator: give ``cls`` its opcode -> handler table, once.

    Every :class:`Opcode` dispatches to the class's ``_<opcode value>``
    method (``VLOAD`` to ``_vload``), so ``execute_one`` looks the
    handler up instead of building the table per instruction.  A
    subclass that overrides a handler applies the decorator again.
    """
    cls._handlers = {op: getattr(cls, f"_{op.value}") for op in Opcode}
    return cls


@opcode_table
class MVPProcessor:
    """Executes MVP macro-instruction programs.

    Args:
        crossbar: the storage/compute array.  The *last* row is reserved by
            the processor for the all-ones constant used by ``VNOT``.
        energy_model: per-activation cost model.
        activation_latency_seconds: seconds per multi-row read.
    """

    def __init__(
        self,
        crossbar: Crossbar,
        energy_model: ScoutingEnergyModel | None = None,
        activation_latency_seconds: float = 100e-9,
    ) -> None:
        if crossbar.rows < 2:
            raise ValueError("crossbar needs >= 2 rows (one is reserved)")
        self.crossbar = crossbar
        self.logic = ScoutingLogic(crossbar)
        self.energy_model = energy_model or ScoutingEnergyModel()
        self.activation_latency_seconds = activation_latency_seconds
        self.stats = MVPStats()
        self._ones_row = crossbar.rows - 1
        crossbar.write_row(self._ones_row, np.ones(crossbar.cols, dtype=int))
        self.result = np.zeros(crossbar.cols, dtype=np.int8)

    @property
    def usable_rows(self) -> int:
        """Rows available to programs (the constant row is reserved)."""
        return self.crossbar.rows - 1

    # -- single instructions ------------------------------------------------

    def execute_one(self, instr: Instruction):
        """Execute one instruction; returns the value for host-bound ops.

        ``VREAD`` returns the row bits, ``POPCOUNT`` the scalar count; all
        other opcodes return None.
        """
        self.stats.instructions += 1
        return self._handlers[instr.opcode](self, instr)

    def execute(self, program: Sequence[Instruction]) -> list:
        """Validate then run a program, collecting host-bound results."""
        validate_program(program, rows=self.usable_rows,
                         cols=self.crossbar.cols)
        outputs = []
        for instr in program:
            value = self.execute_one(instr)
            if value is not None:
                outputs.append(value)
        return outputs

    # -- opcode handlers ------------------------------------------------------

    def _charge_activation(self, k_rows: int) -> None:
        cols = self.crossbar.cols
        self.stats.activations += 1
        self.stats.bit_operations += cols
        self.stats.energy_joules += \
            self.energy_model.operation_energy(cols)
        self.stats.time_seconds += self.activation_latency_seconds

    def _charge_write(self, cells: int) -> None:
        self.stats.program_cycles += cells
        self.stats.energy_joules += cells * _WRITE_ENERGY_PER_CELL
        self.stats.time_seconds += _WRITE_LATENCY

    def _vload(self, instr: Instruction):
        row = instr.rows[0]
        self.crossbar.write_row(row, instr.data)
        self._charge_write(self.crossbar.cols)
        return None

    def _vread(self, instr: Instruction):
        self._charge_activation(1)
        return self.logic.read(instr.rows[0])

    def _vor(self, instr: Instruction):
        self._charge_activation(len(instr.rows))
        self.result = self.logic.or_rows(list(instr.rows))
        return None

    def _vand(self, instr: Instruction):
        self._charge_activation(len(instr.rows))
        self.result = self.logic.and_rows(list(instr.rows))
        return None

    def _vxor(self, instr: Instruction):
        self._charge_activation(2)
        self.result = self.logic.xor_rows(instr.rows[0], instr.rows[1])
        return None

    def _vmaj(self, instr: Instruction):
        self._charge_activation(len(instr.rows))
        self.result = self.logic.majority_rows(list(instr.rows))
        return None

    def _vxor3(self, instr: Instruction):
        self._charge_activation(3)
        self.result = self.logic.xor3_rows(list(instr.rows))
        return None

    def _vnot(self, instr: Instruction):
        # NOT(x) == x XOR 1, using the reserved all-ones row.
        self._charge_activation(2)
        self.result = self.logic.xor_rows(instr.rows[0], self._ones_row)
        return None

    def _vstore(self, instr: Instruction):
        row = instr.rows[0]
        changed = int((self.crossbar.bits[row] != self.result).sum())
        self.crossbar.write_row(row, self.result)
        self._charge_write(changed)
        return None

    def _popcount(self, instr: Instruction):
        # The count is folded on the host side from the SA outputs; charge
        # no array activation (the buffer is already latched).
        return int(self.result.sum())
