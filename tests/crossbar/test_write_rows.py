"""Batched programming equals the per-row loop, draws included.

:meth:`Crossbar.write_rows` (and :meth:`Crossbar.load_matrix`, which is
one ``write_rows`` call) must leave an array exactly as looped
:meth:`Crossbar.write_row` calls would: the same bits, cycle counts and
resistances, and -- under a variability model -- the same generator
state, so seeded experiments do not depend on which path programmed a
tile.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crossbar import Crossbar, NonidealCrossbar, NonidealitySpec
from repro.devices import DeviceParameters, VariabilityModel

PARAMS = DeviceParameters()

sigmas = st.one_of(st.just(0.0), st.floats(0.0, 0.6, allow_nan=False))


def assert_same_state(a: Crossbar, b: Crossbar) -> None:
    np.testing.assert_array_equal(a.bits, b.bits)
    np.testing.assert_array_equal(a.resistances, b.resistances)
    np.testing.assert_array_equal(a.program_cycles, b.program_cycles)
    assert a.rng.bit_generator.state == b.rng.bit_generator.state


@settings(max_examples=80)
@given(rows=st.integers(1, 8), cols=st.integers(1, 8),
       model=st.builds(VariabilityModel, sigmas, sigmas, sigmas, sigmas),
       seed=st.integers(0, 2**32 - 1), preloaded=st.booleans(),
       stuck_share=st.sampled_from([0.0, 0.2, 1.0]))
def test_write_rows_equals_looped_write_row(rows, cols, model, seed,
                                            preloaded, stuck_share):
    data = np.random.default_rng(seed)
    prior = data.integers(0, 2, (rows, cols))
    stuck = data.random((rows, cols)) < stuck_share
    stuck_bits = data.integers(0, 2, (rows, cols))
    order = data.permutation(rows)[:data.integers(1, rows + 1)]
    bits = data.integers(0, 2, (order.size, cols))

    def programmed() -> Crossbar:
        xb = Crossbar(rows, cols, params=PARAMS, variability=model,
                      rng=np.random.default_rng(seed))
        if preloaded:
            for row in range(rows):
                xb.write_row(row, prior[row])
        r, c = np.nonzero(stuck)
        xb.inject_stuck_cells(r, c, stuck_bits[r, c])
        return xb

    batched, looped = programmed(), programmed()
    batched.write_rows(order, bits)
    for row, word in zip(order.tolist(), bits):
        looped.write_row(row, word)
    assert_same_state(batched, looped)


@pytest.mark.parametrize("scheme", ["direct", "verify"])
@settings(max_examples=15)
@given(seed=st.integers(0, 2**32 - 1),
       sigma=st.floats(2.0, 3.0, allow_nan=False),
       fault_rate=st.sampled_from([0.0, 0.1, 0.3]))
def test_nonideal_load_matrix_equals_looped_write_row(scheme, seed, sigma,
                                                      fault_rate):
    """Also under ``"verify"``, whose rewrites draw between rows.  The
    spread is wide enough that some cells miss the verify band."""
    spec = NonidealitySpec(fault_rate=fault_rate, variability_sigma=sigma,
                           write_scheme=scheme)
    target = np.random.default_rng(seed).integers(0, 2, (6, 8))

    def build() -> NonidealCrossbar:
        return NonidealCrossbar(6, 8, params=PARAMS, nonideality=spec,
                                rng=np.random.default_rng(seed))

    loaded, looped = build(), build()
    loaded.load_matrix(target)
    for row in range(6):
        looped.write_row(row, target[row])
    assert_same_state(loaded, looped)
    assert loaded.verify_retries == looped.verify_retries
    assert (looped.verify_retries > 0) == (scheme == "verify")
