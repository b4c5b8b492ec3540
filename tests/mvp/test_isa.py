"""Tests for the MVP macro-instruction set."""

import copy
import pickle

import numpy as np
import pytest

from repro.mvp import Instruction, Opcode, validate_program


class TestConstructors:
    def test_vload_carries_data(self):
        instr = Instruction.vload(3, [1, 0, 1])
        assert instr.opcode is Opcode.VLOAD
        assert instr.rows == (3,)
        assert instr.data.tolist() == [1, 0, 1]

    def test_logic_constructors(self):
        assert Instruction.vor(1, 2, 3).rows == (1, 2, 3)
        assert Instruction.vand(0, 1).opcode is Opcode.VAND
        assert Instruction.vxor(0, 1).rows == (0, 1)
        assert Instruction.vnot(5).rows == (5,)

    def test_instructions_hashable(self):
        assert Instruction.vor(1, 2) == Instruction.vor(1, 2)
        assert len({Instruction.vor(1, 2), Instruction.vor(1, 2)}) == 1


class TestValidation:
    def test_valid_program_passes(self):
        program = [
            Instruction.vload(0, [1, 0]),
            Instruction.vload(1, [0, 1]),
            Instruction.vor(0, 1),
            Instruction.vstore(2),
            Instruction.popcount(),
        ]
        validate_program(program, rows=4, cols=2)

    def test_single_operand_or_is_legal(self):
        validate_program([Instruction.vor(0)], rows=2, cols=2)

    def test_row_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            validate_program([Instruction.vor(0, 9)], rows=4, cols=2)

    def test_vxor_needs_exactly_two(self):
        bad = Instruction(Opcode.VXOR, rows=(0, 1, 2))
        with pytest.raises(ValueError, match="exactly two"):
            validate_program([bad], rows=4, cols=2)

    def test_duplicate_rows_rejected(self):
        with pytest.raises(ValueError, match="activated twice"):
            validate_program([Instruction.vor(1, 1)], rows=4, cols=2)

    def test_vload_payload_width(self):
        with pytest.raises(ValueError, match="bits"):
            validate_program([Instruction.vload(0, [1, 0, 1])],
                             rows=4, cols=2)

    def test_data_only_on_vload(self):
        bad = Instruction(Opcode.VOR, rows=(0, 1), data=(1, 0))
        with pytest.raises(ValueError, match="vload"):
            validate_program([bad], rows=4, cols=2)


class TestPayload:
    """VLOAD payloads: read-only int8 arrays with value equality."""

    WORD = [1, 0, 1, 1]
    MATRIX = [[1, 0, 1, 1], [0, 0, 1, 0]]

    def test_payload_is_read_only_int8(self):
        for bits in (self.WORD, self.MATRIX):
            instr = Instruction.vload(0, bits)
            assert instr.data.dtype == np.int8
            assert instr.data.shape == np.shape(bits)
            with pytest.raises(ValueError, match="read-only"):
                instr.data[0] = 0

    def test_payload_is_copied_from_the_caller(self):
        bits = np.array(self.WORD, dtype=np.int8)
        instr = Instruction.vload(0, bits)
        bits[0] = 0
        assert instr.data.tolist() == self.WORD

    @pytest.mark.parametrize("bits", [WORD, MATRIX])
    def test_same_bits_in_any_form_are_equal(self, bits):
        forms = [bits, np.array(bits, dtype=np.int64),
                 np.array(bits, dtype=bool)]
        instrs = [Instruction.vload(2, form) for form in forms]
        assert all(instr == instrs[0] for instr in instrs)
        assert len({hash(instr) for instr in instrs}) == 1
        assert len(set(instrs)) == 1

    def test_different_payloads_are_unequal(self):
        word = Instruction.vload(0, [1, 0])
        assert word != Instruction.vload(0, [0, 1])
        assert word != Instruction.vload(0, [[1, 0]])  # (1, cols)
        assert word != Instruction.vload(1, [1, 0])
        assert word != Instruction.vor(0)
        assert Instruction.vor(0) != Instruction.vand(0)

    def test_copies_keep_the_payload_read_only(self):
        instr = Instruction.vload(0, self.MATRIX)
        for clone in (pickle.loads(pickle.dumps(instr)),
                      copy.deepcopy(instr)):
            assert clone == instr
            assert not clone.data.flags.writeable

    @pytest.mark.parametrize("bad", [2, -1, 256, 257])
    def test_vload_rejects_non_bits(self, bad):
        with pytest.raises(ValueError, match="0 or 1"):
            Instruction.vload(0, np.array([0, 1, bad]))
        with pytest.raises(ValueError, match="0 or 1"):
            Instruction.vload(0, [[0, 1, 1], [0, 1, bad]])
