"""The scalar MVP ISA: the oracle for the package's one MVP processor.

This is the single-crossbar processor the package ran before the ISA was
written once over the fabric's leading axes, kept verbatim in behaviour:
Python-int and Python-float counters in one :class:`MVPStats`, one
handler per opcode over a (cols,) result buffer, and its own copies of
the write-cost constants.  It shares the crossbar substrate, scouting
logic, the instruction set and the stats record with the package --
``MVPStats`` comes from :mod:`repro.mvp`, so equal records compare
equal -- and nothing else.  The package's processor must reproduce it
exactly, on a single crossbar and item by item on a stack: outputs,
result buffer, stored bits, cell wear and every cost counter.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.crossbar import Crossbar, ScoutingEnergyModel, ScoutingLogic
from repro.mvp import Instruction, MVPStats, Opcode, validate_program

# First-order write cost: programming is the slow, power-hungry phase the
# paper flags (Section IV-C): ~10 ns and ~10 pJ per programmed cell.
_WRITE_ENERGY_PER_CELL = 10e-12
_WRITE_LATENCY = 10e-9


def opcode_table(cls):
    """Class decorator: give ``cls`` its opcode -> handler table, once.

    Every :class:`Opcode` dispatches to the class's ``_<opcode value>``
    method (``VLOAD`` to ``_vload``), so ``execute_one`` looks the
    handler up instead of building the table per instruction.
    """
    cls._handlers = {op: getattr(cls, f"_{op.value}") for op in Opcode}
    return cls


@opcode_table
class MVPProcessor:
    """Executes MVP macro-instruction programs on one crossbar.

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
