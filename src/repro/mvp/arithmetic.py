"""Bit-sliced vector arithmetic on the MVP (paper ref [9]).

The MVP's substrate papers (Hamdioui et al. DATE'15 [3]; Du Nguyen et
al., "On the implementation of computation-in-memory parallel adder"
[9]) build arithmetic from exactly the bulk bitwise operations scouting
logic provides.  The trick is the *bit-sliced* layout: an N-element
vector of W-bit integers occupies W rows -- row k holds bit k of every
element, one element per column.  A ripple-carry addition then needs no
cross-column communication at all:

    t_k     = A_k XOR B_k            (one scouting XOR)
    sum_k   = t_k XOR carry          (one scouting XOR)
    g_k     = A_k AND B_k            (one scouting AND)
    p_k     = t_k AND carry          (one scouting AND)
    carry   = g_k OR p_k             (one scouting OR)

i.e. five activations and a few write-backs per bit position, amortized
over all N columns simultaneously -- the "parallel adder".

Subtraction uses two's complement (NOT via the reserved ones row, then
add with carry-in 1); equality reduces per-column XOR differences with a
multi-row OR.

All operations are *batch-polymorphic*: handed an
:class:`~repro.mvp.processor.MVPProcessor` on a
:class:`~repro.crossbar.array.CrossbarStack` they issue the identical
instruction stream, and every bit-serial stage (the per-bit XOR/AND/OR
or parity/majority activations) applies across all B operand sets at
once -- the whole batch rides each activation for free.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.mvp.isa import Instruction
from repro.mvp.processor import MVPProcessor

__all__ = ["BitSliceVector", "load_unsigned", "read_unsigned",
           "add", "add_fast", "subtract", "equals"]


@dataclasses.dataclass(frozen=True)
class BitSliceVector:
    """A vector of unsigned integers stored bit-sliced across rows.

    Attributes:
        base_row: crossbar row holding bit 0 (the LSB slice).
        bits: number of bit slices (rows).
    """

    base_row: int
    bits: int

    def __post_init__(self) -> None:
        if self.base_row < 0 or self.bits < 1:
            raise ValueError("need a non-negative base row and >= 1 bit")

    def row(self, k: int) -> int:
        """The crossbar row holding bit ``k``."""
        if not 0 <= k < self.bits:
            raise IndexError(f"bit {k} outside [0, {self.bits})")
        return self.base_row + k

    @property
    def rows(self) -> range:
        return range(self.base_row, self.base_row + self.bits)


def load_unsigned(
    processor: MVPProcessor,
    values: Sequence[int] | np.ndarray,
    bits: int,
    base_row: int,
) -> BitSliceVector:
    """Store ``values`` bit-sliced starting at ``base_row``.

    Args:
        processor: target MVP, on a single crossbar or on a stack.
        values: unsigned integers, one per crossbar column -- the shape
            of the processor's result buffer: (cols,) on a crossbar,
            (batch, cols) on a stack (each logical array gets its own
            vector).
        bits: slice count; every value must fit.
        base_row: first row of the allocation.

    Returns:
        The created :class:`BitSliceVector` handle.
    """
    expected = processor.result.shape
    values = np.asarray(values, dtype=np.int64)
    if values.shape != expected:
        raise ValueError(
            f"need exactly values of shape {expected} "
            f"(one per column), got {values.shape}"
        )
    if (values < 0).any():
        raise ValueError("values must be unsigned")
    if (values >= 2**bits).any():
        raise ValueError(f"values do not fit in {bits} bits")
    layout = BitSliceVector(base_row=base_row, bits=bits)
    program = [
        Instruction.vload(layout.row(k), (values >> k) & 1)
        for k in range(bits)
    ]
    processor.execute(program)
    return layout


def read_unsigned(
    processor: MVPProcessor, layout: BitSliceVector
) -> np.ndarray:
    """Read a bit-sliced vector back as integers (via row reads).

    Returns a (cols,) array on a single crossbar and (batch, cols) on a
    stack.
    """
    total = None
    for k in range(layout.bits):
        word = processor.execute([Instruction.vread(layout.row(k))])[0]
        slice_value = word.astype(np.int64) << k
        total = slice_value if total is None else total + slice_value
    return total


def add(
    processor: MVPProcessor,
    a: BitSliceVector,
    b: BitSliceVector,
    dest_row: int,
    scratch_row: int,
) -> BitSliceVector:
    """Element-wise A + B, entirely with in-memory operations.

    Args:
        processor: target MVP.
        a: first operand (bit-sliced).
        b: second operand; must have the same width.
        dest_row: base row for the (bits + 1)-row result (the extra slice
            is the carry-out).
        scratch_row: base row of a 3-row scratch region (t, g/p, carry).

    Returns:
        Handle to the result, one bit wider than the inputs.
    """
    if a.bits != b.bits:
        raise ValueError("operands must have equal widths")
    result = BitSliceVector(base_row=dest_row, bits=a.bits + 1)
    t_row, gp_row, carry_row = (scratch_row, scratch_row + 1,
                                scratch_row + 2)
    zeros = np.zeros(processor.crossbar.cols, dtype=np.int8)
    processor.execute([Instruction.vload(carry_row, zeros)])
    for k in range(a.bits):
        processor.execute([
            # t = A_k XOR B_k
            Instruction.vxor(a.row(k), b.row(k)),
            Instruction.vstore(t_row),
            # sum_k = t XOR carry
            Instruction.vxor(t_row, carry_row),
            Instruction.vstore(result.row(k)),
            # g = A_k AND B_k
            Instruction.vand(a.row(k), b.row(k)),
            Instruction.vstore(gp_row),
            # p = t AND carry, then carry' = g OR p.  gp_row currently
            # holds g; compute p into the result of an OR directly by
            # overwriting t_row with p first.
            Instruction.vand(t_row, carry_row),
            Instruction.vstore(t_row),
            Instruction.vor(gp_row, t_row),
            Instruction.vstore(carry_row),
        ])
    # The final carry is the top slice of the result.
    processor.execute([
        Instruction.vor(carry_row),
        Instruction.vstore(result.row(a.bits)),
    ])
    return result


def add_fast(
    processor: MVPProcessor,
    a: BitSliceVector,
    b: BitSliceVector,
    dest_row: int,
    scratch_row: int,
) -> BitSliceVector:
    """A + B in two activations per bit via 3-input scouting gates.

    Scouting logic's multi-reference sense amplifiers evaluate the full
    adder directly (ref [14]): the sum bit is a 3-input parity
    (``VXOR3``) and the carry is a majority-of-3 (``VMAJ``), each one
    activation over A_k, B_k and the carry row -- 2 activations + 2
    write-backs per bit versus 5 + 5 for the two-input decomposition in
    :func:`add`.

    Args:
        processor: target MVP.
        a, b: operands of equal width.
        dest_row: base row for the (bits + 1)-row result.
        scratch_row: one scratch row (the ripple carry).

    Returns:
        Handle to the result, one bit wider than the inputs.
    """
    if a.bits != b.bits:
        raise ValueError("operands must have equal widths")
    result = BitSliceVector(base_row=dest_row, bits=a.bits + 1)
    carry_row = scratch_row
    zeros = np.zeros(processor.crossbar.cols, dtype=np.int8)
    processor.execute([Instruction.vload(carry_row, zeros)])
    for k in range(a.bits):
        processor.execute([
            # sum_k = parity(A_k, B_k, carry) -- reads the OLD carry.
            Instruction.vxor3(a.row(k), b.row(k), carry_row),
            Instruction.vstore(result.row(k)),
            # carry' = majority(A_k, B_k, carry), then overwrite it.
            Instruction.vmaj(a.row(k), b.row(k), carry_row),
            Instruction.vstore(carry_row),
        ])
    processor.execute([
        Instruction.vor(carry_row),
        Instruction.vstore(result.row(a.bits)),
    ])
    return result


def subtract(
    processor: MVPProcessor,
    a: BitSliceVector,
    b: BitSliceVector,
    dest_row: int,
    scratch_row: int,
) -> BitSliceVector:
    """Element-wise A - B modulo 2^bits (two's complement).

    ``NOT B`` is computed slice-by-slice with the reserved ones row, the
    +1 carry-in is realized by seeding the carry row with ones, and the
    top (borrow) slice is dropped: the returned layout has ``a.bits``
    slices holding (A - B) mod 2^bits.

    Args:
        processor: target MVP.
        a, b: operands of equal width.
        dest_row: base row for the result; (bits + 2) rows are used
            transiently (~B and the full-width sum).
        scratch_row: base row of a 3-row scratch region.

    Returns:
        Handle to the ``a.bits``-slice result.
    """
    if a.bits != b.bits:
        raise ValueError("operands must have equal widths")
    # ~B into dest_row .. dest_row+bits-1 (reused as staging).
    not_b = BitSliceVector(base_row=dest_row, bits=b.bits)
    for k in range(b.bits):
        processor.execute([
            Instruction.vnot(b.row(k)),
            Instruction.vstore(not_b.row(k)),
        ])
    t_row, gp_row, carry_row = (scratch_row, scratch_row + 1,
                                scratch_row + 2)
    ones = np.ones(processor.crossbar.cols, dtype=np.int8)
    processor.execute([Instruction.vload(carry_row, ones)])  # carry-in 1
    sum_layout = BitSliceVector(base_row=dest_row + b.bits, bits=a.bits)
    for k in range(a.bits):
        processor.execute([
            Instruction.vxor(a.row(k), not_b.row(k)),
            Instruction.vstore(t_row),
            Instruction.vxor(t_row, carry_row),
            Instruction.vstore(sum_layout.row(k)),
            Instruction.vand(a.row(k), not_b.row(k)),
            Instruction.vstore(gp_row),
            Instruction.vand(t_row, carry_row),
            Instruction.vstore(t_row),
            Instruction.vor(gp_row, t_row),
            Instruction.vstore(carry_row),
        ])
    return sum_layout


def equals(
    processor: MVPProcessor,
    a: BitSliceVector,
    b: BitSliceVector,
    scratch_row: int,
) -> np.ndarray:
    """Element-wise A == B as a bit vector (1 where equal).

    XORs each slice pair into scratch rows, ORs all difference slices in
    ONE multi-row activation, and inverts on the host.

    Args:
        processor: target MVP.
        a, b: operands of equal width.
        scratch_row: base row of a ``bits``-row scratch region.

    Returns:
        Boolean-int array over columns ((batch, cols) when batched).
    """
    if a.bits != b.bits:
        raise ValueError("operands must have equal widths")
    diff_rows = []
    for k in range(a.bits):
        row = scratch_row + k
        processor.execute([
            Instruction.vxor(a.row(k), b.row(k)),
            Instruction.vstore(row),
        ])
        diff_rows.append(row)
    processor.execute([Instruction.vor(*diff_rows)])
    return (1 - processor.result).astype(np.int8)
