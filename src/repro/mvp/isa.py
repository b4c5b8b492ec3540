"""Macro-instruction set of the Memristive Vector Processor.

The MVP is commanded by *macro*-instructions (paper Section III-B): the
host CPU sends one instruction per offloaded loop; the MVP decodes it
locally and streams the vector operation through the crossbar.  The ISA
below covers the operations scouting logic natively provides (OR / AND /
XOR / READ) plus data movement and the write-back of results.

Instructions are frozen dataclasses -- a program is a list of them --
so they are hashable, comparable and printable for traces.  A VLOAD
payload is a read-only int8 array, checked and copied once when the
instruction is built; processors write it to the crossbar as it is.
Equality and hashing cover the opcode, the rows and the payload's shape
and bytes, so the same bits compare equal however they were given.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Sequence

import numpy as np

from repro.crossbar.array import as_bits

__all__ = ["Opcode", "Instruction", "validate_program"]


class Opcode(enum.Enum):
    """MVP macro-instruction opcodes."""

    VLOAD = "vload"      # program a row with host-supplied bits
    VREAD = "vread"      # read a row back to the host
    VOR = "vor"          # result <- OR of the named rows
    VAND = "vand"        # result <- AND of the named rows
    VXOR = "vxor"        # result <- XOR of two rows
    VMAJ = "vmaj"        # result <- majority of an odd number of rows
    VXOR3 = "vxor3"      # result <- three-input parity
    VNOT = "vnot"        # result <- NOT of one row
    VSTORE = "vstore"    # program the result buffer into a row
    POPCOUNT = "popcount"  # scalar <- number of ones in the result buffer


@dataclasses.dataclass(frozen=True, eq=False)
class Instruction:
    """One MVP macro-instruction.

    Attributes:
        opcode: the operation.
        rows: operand row indices (meaning depends on the opcode).
        data: immediate bits for VLOAD, else None: a read-only int8
            array of shape (cols,), or (B, cols) for batched execution.
            Any 0/1 array-like is accepted and copied into that form.

    Raises:
        ValueError: if ``data`` holds a value other than 0 or 1.
    """

    opcode: Opcode
    rows: tuple[int, ...] = ()
    data: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.data is not None:
            payload = as_bits(self.data, copy=True)
            payload.flags.writeable = False
            object.__setattr__(self, "data", payload)

    def _key(self) -> tuple:
        payload = (None if self.data is None
                   else (self.data.shape, self.data.tobytes()))
        return self.opcode, self.rows, payload

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instruction):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        # Rebuild through the constructor: a plain unpickle or deepcopy
        # would hand back a writeable payload.
        return type(self), (self.opcode, self.rows, self.data)

    @classmethod
    def vload(cls, row: int, bits) -> "Instruction":
        """Program ``row`` with ``bits``.

        ``bits`` is a flat (cols,) word, or -- for batched execution -- a
        (B, cols) matrix giving each logical array its own word.  Lists,
        integer and bool arrays all give the same read-only int8 payload;
        a value other than 0 or 1 raises ValueError.
        """
        return cls(Opcode.VLOAD, rows=(row,), data=bits)

    @classmethod
    def vread(cls, row: int) -> "Instruction":
        return cls(Opcode.VREAD, rows=(row,))

    @classmethod
    def vor(cls, *rows: int) -> "Instruction":
        return cls(Opcode.VOR, rows=tuple(rows))

    @classmethod
    def vand(cls, *rows: int) -> "Instruction":
        return cls(Opcode.VAND, rows=tuple(rows))

    @classmethod
    def vxor(cls, row_a: int, row_b: int) -> "Instruction":
        return cls(Opcode.VXOR, rows=(row_a, row_b))

    @classmethod
    def vmaj(cls, *rows: int) -> "Instruction":
        return cls(Opcode.VMAJ, rows=tuple(rows))

    @classmethod
    def vxor3(cls, row_a: int, row_b: int, row_c: int) -> "Instruction":
        return cls(Opcode.VXOR3, rows=(row_a, row_b, row_c))

    @classmethod
    def vnot(cls, row: int) -> "Instruction":
        return cls(Opcode.VNOT, rows=(row,))

    @classmethod
    def vstore(cls, row: int) -> "Instruction":
        return cls(Opcode.VSTORE, rows=(row,))

    @classmethod
    def popcount(cls) -> "Instruction":
        return cls(Opcode.POPCOUNT)


# VOR/VAND with a single operand degenerate to a plain read (a 1-row
# scouting activation), which query lowerings rely on.
_MIN_OPERANDS = {
    Opcode.VLOAD: 1,
    Opcode.VREAD: 1,
    Opcode.VOR: 1,
    Opcode.VAND: 1,
    Opcode.VXOR: 2,
    Opcode.VMAJ: 3,
    Opcode.VXOR3: 3,
    Opcode.VNOT: 1,
    Opcode.VSTORE: 1,
    Opcode.POPCOUNT: 0,
}


def validate_program(
    program: Sequence[Instruction], rows: int, cols: int,
    batch: int | None = None,
) -> None:
    """Static checks on a program before execution.

    Args:
        program: the instruction sequence.
        rows: usable word lines of the target processor.
        cols: bit lines of the target processor.
        batch: batch size of the target processor; None for single-item
            execution.  Batched targets accept both flat (cols,) VLOAD
            payloads (broadcast) and per-item (batch, cols) payloads.

    Raises:
        ValueError: on operand-count violations, out-of-range rows, VLOAD
            payload mismatches, or a VXOR with != 2 operands.
    """
    for pc, instr in enumerate(program):
        minimum = _MIN_OPERANDS[instr.opcode]
        if len(instr.rows) < minimum:
            raise ValueError(
                f"pc={pc}: {instr.opcode.value} needs >= {minimum} rows"
            )
        if instr.opcode is Opcode.VXOR and len(instr.rows) != 2:
            raise ValueError(f"pc={pc}: vxor takes exactly two rows")
        if instr.opcode is Opcode.VXOR3 and len(instr.rows) != 3:
            raise ValueError(f"pc={pc}: vxor3 takes exactly three rows")
        if instr.opcode is Opcode.VMAJ and len(instr.rows) % 2 == 0:
            raise ValueError(f"pc={pc}: vmaj needs an odd row count")
        if instr.opcode in (Opcode.VOR, Opcode.VAND, Opcode.VXOR,
                            Opcode.VMAJ, Opcode.VXOR3) \
                and len(set(instr.rows)) != len(instr.rows):
            raise ValueError(
                f"pc={pc}: a word line cannot be activated twice"
            )
        if instr.opcode in (Opcode.VREAD, Opcode.VNOT, Opcode.VSTORE,
                            Opcode.VLOAD) and len(instr.rows) != 1:
            raise ValueError(
                f"pc={pc}: {instr.opcode.value} takes exactly one row"
            )
        for row in instr.rows:
            if not 0 <= row < rows:
                raise ValueError(f"pc={pc}: row {row} out of range")
        if instr.opcode is Opcode.VLOAD:
            shape = instr.data.shape if instr.data is not None else None
            allowed = [(cols,)]
            if batch is not None:
                allowed.append((batch, cols))
            if shape not in allowed:
                raise ValueError(
                    f"pc={pc}: vload payload bits must have shape "
                    f"{' or '.join(map(str, allowed))}, got {shape}"
                )
        elif instr.data is not None:
            raise ValueError(f"pc={pc}: only vload carries data")
