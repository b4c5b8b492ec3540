"""Batched MVP execution: one ISA program over B operand sets at once.

The paper's throughput argument (Section III/IV) is that computation-in-
memory wins by amortizing every control action over as much data as
possible.  :class:`BatchedMVPProcessor` applies that idea one level up
from the columns: it executes a macro-instruction program against a
:class:`~repro.crossbar.array.CrossbarStack` of B logical crossbars, so
every activation, write-back and sense-amp decision services B workloads
in a single vectorized numpy operation instead of B Python-level loops.

Execution is *bit-exact* with a loop of B single-item
:class:`~repro.mvp.processor.MVPProcessor` runs -- same stored bits, same
sense-amp decisions, same per-item cost counters -- because the stack
selects and reduces exactly the same operands per item (the property
tests in ``tests/mvp/test_batch_equivalence.py`` enforce this).  Cost
accounting is shared: activation counts and timing are common to the
whole batch, while programming-cycle and energy counters (which depend on
each item's data) are tracked per item.

A corollary the sharded executor (:mod:`repro.parallel`) builds on:
because every per-item counter depends only on that item's stored bits
and the (shared) instruction stream, an item's :meth:`stats_for` record
is invariant to *batch composition* -- running items ``[k, k+1)`` on a
B=1 stack yields the identical record the full-batch run reports for
item ``k``.  ``tests/parallel/test_determinism.py`` pins this across
shard plans.

The bit-sliced arithmetic helpers in :mod:`repro.mvp.arithmetic` are
batch-polymorphic: ``add``/``add_fast``/``subtract``/``equals`` issue the
same programs against a batched processor and operate on all B operand
sets simultaneously.

Example::

    stack = CrossbarStack(batch=64, rows=24, cols=32)
    mvp = BatchedMVPProcessor(stack)
    a = load_unsigned(mvp, a_values, bits=8, base_row=0)   # (64, 32) values
    b = load_unsigned(mvp, b_values, bits=8, base_row=8)
    total = add_fast(mvp, a, b, dest_row=16, scratch_row=23 - 1)
    sums = read_unsigned(mvp, total)                       # (64, 32) ints
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.crossbar import CrossbarStack, ScoutingEnergyModel, ScoutingLogic
from repro.mvp.isa import Instruction, validate_program
from repro.mvp.processor import (
    _WRITE_ENERGY_PER_CELL,
    _WRITE_LATENCY,
    MVPStats,
    opcode_table,
)

__all__ = ["BatchedMVPProcessor"]


@opcode_table
class BatchedMVPProcessor:
    """Executes one MVP program over every logical array of a stack.

    Mirrors the :class:`~repro.mvp.processor.MVPProcessor` API -- same
    reserved all-ones row, same result-buffer semantics, same opcode set
    -- with the batch axis prepended to data-carrying shapes: the result
    buffer is (B, cols), ``VREAD`` returns (B, cols) words and
    ``POPCOUNT`` a (B,) count vector.  ``VLOAD`` payloads may be flat
    (cols,) words (broadcast to the batch) or per-item (B, cols)
    matrices.

    Args:
        stack: the batch of logical crossbars.  The *last* row of every
            array is reserved for the all-ones constant used by ``VNOT``.
        energy_model: per-activation cost model (shared by all items).
        activation_latency_seconds: seconds per multi-row read.
    """

    def __init__(
        self,
        stack: CrossbarStack,
        energy_model: ScoutingEnergyModel | None = None,
        activation_latency_seconds: float = 100e-9,
    ) -> None:
        if stack.rows < 2:
            raise ValueError("crossbar needs >= 2 rows (one is reserved)")
        self.crossbar = stack
        self.batch = stack.batch
        self.logic = ScoutingLogic(stack)
        self.energy_model = energy_model or ScoutingEnergyModel()
        self.activation_latency_seconds = activation_latency_seconds
        self._ones_row = stack.rows - 1
        stack.write_row(self._ones_row, np.ones(stack.cols, dtype=int))
        self.result = np.zeros((self.batch, stack.cols), dtype=np.int8)
        # Shared counters (identical across items by construction) ...
        self._instructions = 0
        self._activations = 0
        self._bit_operations = 0
        self._time = 0.0
        # ... and data-dependent per-item counters.  (Programming the
        # reserved ones row is setup, not program cost -- exactly as in
        # the single-item processor.)
        self._program_cycles = np.zeros(self.batch, dtype=np.int64)
        self._energy = np.zeros(self.batch, dtype=float)

    @property
    def usable_rows(self) -> int:
        """Rows available to programs (the constant row is reserved)."""
        return self.crossbar.rows - 1

    # -- cost accounting ------------------------------------------------------

    def stats_for(self, item: int) -> MVPStats:
        """The cost counters of logical array ``item``.

        Matches, field for field, what a single
        :class:`~repro.mvp.processor.MVPProcessor` running only this
        item's workload would have accumulated.
        """
        if not 0 <= item < self.batch:
            raise IndexError(f"item {item} out of range [0, {self.batch})")
        return MVPStats(
            instructions=self._instructions,
            activations=self._activations,
            program_cycles=int(self._program_cycles[item]),
            bit_operations=self._bit_operations,
            energy_joules=float(self._energy[item]),
            time_seconds=self._time,
        )

    @property
    def stats(self) -> list[MVPStats]:
        """Per-item cost counters, one :class:`MVPStats` per logical array."""
        return [self.stats_for(i) for i in range(self.batch)]

    def total_stats(self) -> MVPStats:
        """All B items' counters merged (whole-batch roll-up)."""
        total = MVPStats()
        for i in range(self.batch):
            total = total.merged_with(self.stats_for(i))
        return total

    def _charge_activation(self, k_rows: int) -> None:
        cols = self.crossbar.cols
        self._activations += 1
        self._bit_operations += cols
        self._energy += self.energy_model.operation_energy(cols)
        self._time += self.activation_latency_seconds

    def _charge_write(self, cells_per_item: np.ndarray | int) -> None:
        self._program_cycles += cells_per_item
        self._energy += cells_per_item * _WRITE_ENERGY_PER_CELL
        self._time += _WRITE_LATENCY

    # -- execution ------------------------------------------------------------

    def execute_one(self, instr: Instruction):
        """Execute one instruction across the whole batch.

        ``VREAD`` returns the (B, cols) row bits, ``POPCOUNT`` the (B,)
        counts; all other opcodes return None.
        """
        self._instructions += 1
        return self._handlers[instr.opcode](self, instr)

    def execute(self, program: Sequence[Instruction]) -> list:
        """Validate then run a program, collecting host-bound results."""
        validate_program(program, rows=self.usable_rows,
                         cols=self.crossbar.cols, batch=self.batch)
        outputs = []
        for instr in program:
            value = self.execute_one(instr)
            if value is not None:
                outputs.append(value)
        return outputs

    def run_batch(self, program: Sequence[Instruction]) -> list:
        """Alias of :meth:`execute`, matching the automata batch API."""
        return self.execute(program)

    # -- opcode handlers ------------------------------------------------------

    def _vload(self, instr: Instruction):
        row = instr.rows[0]
        self.crossbar.write_row(row, instr.data)
        # Every item programs every column: one scalar charge for all.
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
        self._charge_activation(2)
        self.result = self.logic.xor_rows(instr.rows[0], self._ones_row)
        return None

    def _vstore(self, instr: Instruction):
        row = instr.rows[0]
        # stored_word keeps this cheap on composite stacks (the
        # nonideal fabric materializes `bits` views per item): only the
        # (batch, cols) row slice is needed for the changed-cell count.
        changed = (
            self.crossbar.stored_word(row) != self.result
        ).sum(axis=1).astype(np.int64)
        self.crossbar.write_row(row, self.result)
        self._charge_write(changed)
        return None

    def _popcount(self, instr: Instruction):
        return self.result.sum(axis=1).astype(np.int64)
