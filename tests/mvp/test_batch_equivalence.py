"""Property tests: the MVP processor, on a stack and on one crossbar,
equals the scalar ISA oracle.

The package writes the MVP ISA once, over the fabric's leading axes.
Its contract is *bit-exactness* with the single-crossbar processor kept
in ``scalar_isa.py`` (the ``scalar_isa`` fixture): for any program and
any operand sets, running B items on a stack (the stack path) and
running each item alone on its own crossbar (the single path) must both
give, for every item, exactly the oracle's host-bound outputs, result
buffer, stored bits, cell wear, resistances and cost counters.
Hypothesis drives random programs over the full opcode set, on ideal
fabrics and on nonideal ones (faults, spread, write-verify and wire
resistance) seeded alike on both sides.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crossbar import (
    Crossbar,
    CrossbarStack,
    NonidealCrossbar,
    NonidealCrossbarStack,
    NonidealitySpec,
)
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

#: Every nonideal axis at once: stuck cells, lognormal spread, the
#: verify loop (which rewrites out-of-band cells with fresh draws; a
#: spread this wide sends about one row write in twelve through it) and
#: IR-drop-aware reads.
NONIDEAL = NonidealitySpec(fault_count=4, variability_sigma=1.0,
                           write_scheme="verify", verify_iterations=3,
                           wire_resistance=2.0)


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


def _record(processor, outputs, item=None):
    """What a run left behind for one logical crossbar: host-bound
    outputs, result buffer, stored bits, cell wear, resistances and
    cost counters.  ``item`` picks one item of a stack-backed run."""
    fabric = processor.crossbar
    state = [fabric.bits, fabric.program_cycles, fabric.resistances]
    if item is None:
        return outputs, [processor.result, *state], processor.stats
    return ([out[item] for out in outputs],
            [processor.result[item], *(a[item] for a in state)],
            processor.stats_for(item))


def _assert_same(got, want):
    outputs, arrays, stats = got
    want_outputs, want_arrays, want_stats = want
    assert len(outputs) == len(want_outputs)
    for out, want_out in zip(outputs, want_outputs):
        np.testing.assert_array_equal(out, want_out)
    for array, want_array in zip(arrays, want_arrays):
        np.testing.assert_array_equal(array, want_array)
    # Exact floats: both accumulate the same additions in the same order.
    assert stats == want_stats


def _assert_stack_matches_oracle(stacked, outputs, oracles, batch):
    """Every item of a stack-backed run equals its oracle run."""
    # VREAD words and POPCOUNT counts carry the batch axis first.
    assert all(np.shape(out)[0] == batch for out in outputs)
    for item, (oracle, oracle_outputs) in enumerate(oracles):
        _assert_same(_record(stacked, outputs, item),
                     _record(oracle, oracle_outputs))


def _assert_single_matches_oracle(single, outputs, oracle, oracle_outputs):
    """A single-crossbar run equals the oracle, output types included
    (a POPCOUNT is an int, a VREAD a (cols,) word)."""
    assert [type(out) for out in outputs] == \
        [type(out) for out in oracle_outputs]
    _assert_same(_record(single, outputs), _record(oracle, oracle_outputs))


class TestRandomProgramEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_stack_and_single_equal_oracle(self, scalar_isa, data):
        batch = data.draw(st.integers(1, 5))
        program = data.draw(programs(batch))

        stacked = MVPProcessor(CrossbarStack(batch, ROWS, COLS))
        outputs = stacked.execute(program)

        oracles = []
        for item in range(batch):
            sliced = _slice_program(program, item)
            oracle = scalar_isa.MVPProcessor(Crossbar(ROWS, COLS))
            oracle_outputs = oracle.execute(sliced)
            oracles.append((oracle, oracle_outputs))

            single = MVPProcessor(Crossbar(ROWS, COLS))
            _assert_single_matches_oracle(
                single, single.execute(sliced), oracle, oracle_outputs)
        _assert_stack_matches_oracle(stacked, outputs, oracles, batch)

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_nonideal_stack_and_single_equal_oracle(self, scalar_isa,
                                                    data):
        batch = data.draw(st.integers(1, 3))
        program = data.draw(programs(batch))
        seed = data.draw(st.integers(0, 2**32 - 1))

        def fabric(item):
            return NonidealCrossbar(ROWS, COLS, nonideality=NONIDEAL,
                                    rng=np.random.default_rng([seed, item]))

        stacked = MVPProcessor(NonidealCrossbarStack(
            ROWS, COLS, nonideality=NONIDEAL,
            rngs=[np.random.default_rng([seed, i]) for i in range(batch)]))
        outputs = stacked.execute(program)

        oracles = []
        for item in range(batch):
            sliced = _slice_program(program, item)
            oracle = scalar_isa.MVPProcessor(fabric(item))
            oracle_outputs = oracle.execute(sliced)
            oracles.append((oracle, oracle_outputs))

            single = MVPProcessor(fabric(item))
            _assert_single_matches_oracle(
                single, single.execute(sliced), oracle, oracle_outputs)
            assert single.crossbar.verify_retries == \
                oracle.crossbar.verify_retries
        _assert_stack_matches_oracle(stacked, outputs, oracles, batch)

    def test_oracle_shares_the_stats_record(self, scalar_isa):
        """A second ``MVPStats`` dataclass would make equal records
        compare unequal, and every comparison above meaningless."""
        oracle = scalar_isa.MVPProcessor(Crossbar(ROWS, COLS))
        single = MVPProcessor(Crossbar(ROWS, COLS))
        assert type(oracle.stats) is type(single.stats)
        assert oracle.stats == single.stats


class TestStackStats:
    @pytest.mark.parametrize("batch", [1, 2])
    def test_stack_has_no_single_record(self, batch):
        """``stats`` on a stack must not answer with item 0's record,
        not even on a one-item stack."""
        stacked = MVPProcessor(CrossbarStack(batch, ROWS, COLS))
        stacked.execute([
            Instruction.vload(0, [[1] * COLS, [0] * COLS][:batch]),
            Instruction.vor(0),
            Instruction.vstore(1),
        ])
        with pytest.raises(TypeError, match="stats_for.*total_stats"):
            stacked.stats
        records = [stacked.stats_for(i) for i in range(batch)]
        if batch == 2:
            assert records[0] != records[1]
            assert stacked.total_stats() == \
                records[0].merged_with(records[1])

    def test_stats_for_checks_the_item(self):
        stacked = MVPProcessor(CrossbarStack(2, ROWS, COLS))
        with pytest.raises(IndexError, match="out of range"):
            stacked.stats_for(2)

    def test_batched_processor_requires_a_stack(self):
        with pytest.raises(TypeError, match="CrossbarStack"):
            BatchedMVPProcessor(Crossbar(ROWS, COLS))
        assert BatchedMVPProcessor(CrossbarStack(3, ROWS, COLS)).batch == 3


class TestArithmeticEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 6), st.integers(1, 6))
    def test_adders_and_subtract(self, scalar_isa, seed, batch, bits):
        rng = np.random.default_rng(seed)
        a_vals = rng.integers(0, 2**bits, (batch, COLS))
        b_vals = rng.integers(0, 2**bits, (batch, COLS))
        rows = 6 * bits + 8

        def run(processor, a_in, b_in):
            a = load_unsigned(processor, a_in, bits=bits, base_row=0)
            b = load_unsigned(processor, b_in, bits=bits, base_row=bits)
            total = add(processor, a, b, dest_row=2 * bits,
                        scratch_row=5 * bits + 4)
            diff = subtract(processor, a, b, dest_row=3 * bits + 1,
                            scratch_row=5 * bits + 4)
            return (read_unsigned(processor, total),
                    read_unsigned(processor, diff))

        stacked = BatchedMVPProcessor(CrossbarStack(batch, rows, COLS))
        got_sum, got_diff = run(stacked, a_vals, b_vals)

        for item in range(batch):
            oracle = scalar_isa.MVPProcessor(Crossbar(rows, COLS))
            want = run(oracle, a_vals[item], b_vals[item])
            single = MVPProcessor(Crossbar(rows, COLS))
            for got in (run(single, a_vals[item], b_vals[item]),
                        (got_sum[item], got_diff[item])):
                np.testing.assert_array_equal(got[0], want[0])
                np.testing.assert_array_equal(got[1], want[1])
            assert single.stats == oracle.stats
            assert stacked.stats_for(item) == oracle.stats

        np.testing.assert_array_equal(got_sum, a_vals + b_vals)
        np.testing.assert_array_equal(got_diff,
                                      (a_vals - b_vals) % 2**bits)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 5))
    def test_add_fast_and_equals(self, scalar_isa, seed, batch):
        bits = 4
        rng = np.random.default_rng(seed)
        a_vals = rng.integers(0, 2**bits, (batch, COLS))
        b_vals = rng.integers(0, 2**bits, (batch, COLS))
        rows = 4 * bits + 6

        def run(processor, a_in, b_in):
            a = load_unsigned(processor, a_in, bits=bits, base_row=0)
            b = load_unsigned(processor, b_in, bits=bits, base_row=bits)
            total = add_fast(processor, a, b, dest_row=2 * bits,
                             scratch_row=3 * bits + 1)
            mask = equals(processor, a, b, scratch_row=3 * bits + 1)
            return read_unsigned(processor, total), mask

        stacked = BatchedMVPProcessor(CrossbarStack(batch, rows, COLS))
        got_sum, got_mask = run(stacked, a_vals, b_vals)

        for item in range(batch):
            oracle = scalar_isa.MVPProcessor(Crossbar(rows, COLS))
            want_sum, want_mask = run(oracle, a_vals[item], b_vals[item])
            single = MVPProcessor(Crossbar(rows, COLS))
            single_sum, single_mask = run(single, a_vals[item],
                                          b_vals[item])
            np.testing.assert_array_equal(single_sum, want_sum)
            np.testing.assert_array_equal(single_mask, want_mask)
            np.testing.assert_array_equal(got_sum[item], want_sum)
            np.testing.assert_array_equal(got_mask[item], want_mask)
            assert single.stats == oracle.stats
            assert stacked.stats_for(item) == oracle.stats

        np.testing.assert_array_equal(got_sum, a_vals + b_vals)
        np.testing.assert_array_equal(got_mask,
                                      (a_vals == b_vals).astype(np.int8))
