"""Property tests: batched MVP execution == a loop of single-item runs.

The batch engine's contract is *bit-exactness*: for any program and any
operand sets, running B items through :class:`BatchedMVPProcessor` must
produce, for every item, exactly the stored bits, host-bound outputs,
result buffer and cost counters of a single
:class:`MVPProcessor` executing that item's program alone.  Hypothesis
drives random programs over the full opcode set to pin this down.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.crossbar import Crossbar, CrossbarStack
from repro.mvp import (
    BatchedMVPProcessor,
    Instruction,
    MVPProcessor,
    Opcode,
    add,
    add_fast,
    equals,
    load_unsigned,
    read_unsigned,
    subtract,
)

ROWS = 9  # 8 usable + the reserved ones row
COLS = 6


def _slice_program(program, item):
    """The single-item view of a batched program (vload payload row)."""
    sliced = []
    for instr in program:
        if instr.opcode is Opcode.VLOAD and instr.data.ndim == 2:
            sliced.append(Instruction(Opcode.VLOAD, rows=instr.rows,
                                      data=instr.data[item]))
        else:
            sliced.append(instr)
    return sliced


@st.composite
def programs(draw, batch):
    """A random valid program with per-item VLOAD payloads."""
    usable = ROWS - 1
    n_instr = draw(st.integers(1, 12))
    rows = st.integers(0, usable - 1)
    instrs = []
    for _ in range(n_instr):
        kind = draw(st.sampled_from(
            ["vload", "vor", "vand", "vxor", "vmaj", "vxor3", "vnot",
             "vstore", "vread", "popcount"]
        ))
        if kind == "vload":
            bits = draw(st.lists(
                st.lists(st.integers(0, 1), min_size=COLS, max_size=COLS),
                min_size=batch, max_size=batch,
            ))
            instrs.append(Instruction.vload(draw(rows), np.array(bits)))
        elif kind in ("vor", "vand"):
            k = draw(st.integers(1, 4))
            operands = draw(st.permutations(range(usable)))[:k]
            ctor = Instruction.vor if kind == "vor" else Instruction.vand
            instrs.append(ctor(*operands))
        elif kind == "vxor":
            a, b = draw(st.permutations(range(usable)))[:2]
            instrs.append(Instruction.vxor(a, b))
        elif kind in ("vmaj", "vxor3"):
            a, b, c = draw(st.permutations(range(usable)))[:3]
            ctor = (Instruction.vmaj if kind == "vmaj"
                    else Instruction.vxor3)
            instrs.append(ctor(a, b, c))
        elif kind == "vnot":
            instrs.append(Instruction.vnot(draw(rows)))
        elif kind == "vstore":
            instrs.append(Instruction.vstore(draw(rows)))
        elif kind == "vread":
            instrs.append(Instruction.vread(draw(rows)))
        else:
            instrs.append(Instruction.popcount())
    return instrs


class TestRandomProgramEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_batched_equals_looped(self, data):
        batch = data.draw(st.integers(1, 5))
        program = data.draw(programs(batch))

        stack = CrossbarStack(batch, ROWS, COLS)
        batched = BatchedMVPProcessor(stack)
        batched_outputs = batched.execute(program)

        for item in range(batch):
            single = MVPProcessor(Crossbar(ROWS, COLS))
            single_outputs = single.execute(_slice_program(program, item))

            # Host-bound outputs (VREAD vectors, POPCOUNT scalars).
            assert len(batched_outputs) == len(single_outputs)
            for got, want in zip(batched_outputs, single_outputs):
                if np.isscalar(want) or np.ndim(want) == 0:
                    assert int(np.asarray(got)[item]) == int(want)
                else:
                    np.testing.assert_array_equal(got[item], want)

            # Stored bits, result buffer, endurance counters.
            np.testing.assert_array_equal(
                stack.bits[item], single.crossbar.bits
            )
            np.testing.assert_array_equal(
                batched.result[item], single.result
            )
            np.testing.assert_array_equal(
                stack.program_cycles[item], single.crossbar.program_cycles
            )

            # Per-item cost counters match field for field (exact floats:
            # both paths accumulate the same additions in the same order).
            assert batched.stats_for(item) == single.stats


class TestArithmeticEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 6), st.integers(1, 6))
    def test_adders_and_subtract(self, seed, batch, bits):
        rng = np.random.default_rng(seed)
        a_vals = rng.integers(0, 2**bits, (batch, COLS))
        b_vals = rng.integers(0, 2**bits, (batch, COLS))
        rows = 6 * bits + 8

        batched = BatchedMVPProcessor(CrossbarStack(batch, rows, COLS))
        a = load_unsigned(batched, a_vals, bits=bits, base_row=0)
        b = load_unsigned(batched, b_vals, bits=bits, base_row=bits)
        total = add(batched, a, b, dest_row=2 * bits,
                    scratch_row=5 * bits + 4)
        diff = subtract(batched, a, b, dest_row=3 * bits + 1,
                        scratch_row=5 * bits + 4)
        got_sum = read_unsigned(batched, total)
        got_diff = read_unsigned(batched, diff)

        for item in range(batch):
            single = MVPProcessor(Crossbar(rows, COLS))
            sa = load_unsigned(single, a_vals[item], bits=bits, base_row=0)
            sb = load_unsigned(single, b_vals[item], bits=bits,
                               base_row=bits)
            s_total = add(single, sa, sb, dest_row=2 * bits,
                          scratch_row=5 * bits + 4)
            s_diff = subtract(single, sa, sb, dest_row=3 * bits + 1,
                              scratch_row=5 * bits + 4)
            np.testing.assert_array_equal(
                got_sum[item], read_unsigned(single, s_total)
            )
            np.testing.assert_array_equal(
                got_diff[item], read_unsigned(single, s_diff)
            )
            assert batched.stats_for(item) == single.stats

        np.testing.assert_array_equal(got_sum, a_vals + b_vals)
        np.testing.assert_array_equal(got_diff,
                                      (a_vals - b_vals) % 2**bits)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 5))
    def test_add_fast_and_equals(self, seed, batch):
        bits = 4
        rng = np.random.default_rng(seed)
        a_vals = rng.integers(0, 2**bits, (batch, COLS))
        b_vals = rng.integers(0, 2**bits, (batch, COLS))
        rows = 4 * bits + 6

        batched = BatchedMVPProcessor(CrossbarStack(batch, rows, COLS))
        a = load_unsigned(batched, a_vals, bits=bits, base_row=0)
        b = load_unsigned(batched, b_vals, bits=bits, base_row=bits)
        total = add_fast(batched, a, b, dest_row=2 * bits,
                         scratch_row=3 * bits + 1)
        mask = equals(batched, a, b, scratch_row=3 * bits + 1)

        np.testing.assert_array_equal(read_unsigned(batched, total),
                                      a_vals + b_vals)
        np.testing.assert_array_equal(mask,
                                      (a_vals == b_vals).astype(np.int8))
