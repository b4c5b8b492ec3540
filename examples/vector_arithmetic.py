"""Vector arithmetic inside the memory: the CIM parallel adder.

The MVP's substrate papers (refs [3, 9] of the paper) turn bulk bitwise
operations into arithmetic via a bit-sliced layout: a vector of W-bit
integers lives in W crossbar rows, and a ripple-carry add is 5 scouting
activations per bit -- for EVERY element at once.  This example adds and
subtracts thousand-element vectors in-memory and verifies against numpy.

Run:  python examples/vector_arithmetic.py
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.crossbar import Crossbar
from repro.mvp import (
    MVPProcessor,
    add,
    equals,
    load_unsigned,
    read_unsigned,
    subtract,
)

N = 1024
BITS = 8


def main() -> None:
    rng = np.random.default_rng(42)
    a_vals = rng.integers(0, 2**BITS, N)
    b_vals = rng.integers(0, 2**BITS, N)

    mvp = MVPProcessor(Crossbar(6 * BITS + 8, N))
    a = load_unsigned(mvp, a_vals, bits=BITS, base_row=0)
    b = load_unsigned(mvp, b_vals, bits=BITS, base_row=BITS)
    print(f"loaded two {N}-element {BITS}-bit vectors "
          f"({2 * BITS} crossbar rows)\n")

    before = mvp.stats.activations
    total = add(mvp, a, b, dest_row=2 * BITS, scratch_row=5 * BITS + 2)
    add_activations = mvp.stats.activations - before
    np.testing.assert_array_equal(read_unsigned(mvp, total),
                                  a_vals + b_vals)

    before = mvp.stats.activations
    diff = subtract(mvp, a, b, dest_row=3 * BITS + 1,
                    scratch_row=5 * BITS + 2)
    sub_activations = mvp.stats.activations - before
    np.testing.assert_array_equal(read_unsigned(mvp, diff),
                                  (a_vals - b_vals) % 2**BITS)

    before = mvp.stats.activations
    eq_mask = equals(mvp, a, b, scratch_row=5 * BITS + 2)
    eq_activations = mvp.stats.activations - before
    np.testing.assert_array_equal(eq_mask,
                                  (a_vals == b_vals).astype(int))

    print(format_table(
        ["operation", "crossbar activations", "per element"],
        [
            (f"A + B  ({N} adds)", add_activations, add_activations / N),
            (f"A - B  ({N} subs)", sub_activations, sub_activations / N),
            (f"A == B ({N} compares)", eq_activations,
             eq_activations / N),
        ],
        title="All results verified against numpy",
    ))
    print(f"\ntotal in-memory energy: {mvp.stats.energy_joules * 1e9:.1f} nJ; "
          f"wear: max {mvp.crossbar.max_program_cycles()} program "
          f"cycles on any cell")
    print("activation counts depend on operand WIDTH, never on the "
          "element count --\nthat is the in-memory parallelism the paper "
          "builds MVP on.")


if __name__ == "__main__":
    main()
