"""Tests for D2D/C2C variability sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import DeviceParameters, VariabilityModel, sample_resistances

PARAMS = DeviceParameters()


class TestIdealSampling:
    def test_no_variability_gives_two_point_values(self):
        bits = np.array([[1, 0], [0, 1]])
        r = sample_resistances(bits, PARAMS, None, None)
        assert r[0, 0] == PARAMS.r_on
        assert r[0, 1] == PARAMS.r_off
        assert r[1, 0] == PARAMS.r_off
        assert r[1, 1] == PARAMS.r_on

    def test_accepts_bool_arrays(self):
        bits = np.array([True, False])
        r = sample_resistances(bits, PARAMS, None, None)
        assert r[0] == PARAMS.r_on


class TestVariabilitySampling:
    def test_requires_rng(self):
        with pytest.raises(ValueError):
            sample_resistances(np.ones(4), PARAMS, VariabilityModel(), None)

    def test_reproducible_with_seed(self):
        bits = np.ones((8, 8), dtype=int)
        a = sample_resistances(bits, PARAMS, VariabilityModel(),
                               np.random.default_rng(5))
        b = sample_resistances(bits, PARAMS, VariabilityModel(),
                               np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_median_near_nominal(self):
        rng = np.random.default_rng(11)
        bits = np.ones(20000, dtype=int)
        r = sample_resistances(bits, PARAMS, VariabilityModel(), rng)
        # Lognormal: median of samples ~ nominal r_on.
        assert float(np.median(r)) == pytest.approx(PARAMS.r_on, rel=0.05)

    def test_off_state_spread_larger_than_on(self):
        rng = np.random.default_rng(13)
        on = sample_resistances(np.ones(20000), PARAMS, VariabilityModel(), rng)
        off = sample_resistances(np.zeros(20000), PARAMS, VariabilityModel(), rng)
        spread_on = np.std(np.log(on))
        spread_off = np.std(np.log(off))
        assert spread_off > 2.0 * spread_on

    def test_states_remain_separable_at_default_spread(self):
        """The paper's 1e5 resistance window should survive variation."""
        rng = np.random.default_rng(17)
        on = sample_resistances(np.ones(10000), PARAMS, VariabilityModel(), rng)
        off = sample_resistances(np.zeros(10000), PARAMS, VariabilityModel(), rng)
        assert float(np.max(on)) < float(np.min(off))


def three_draw_reference(bits, params, model, rng):
    """The sampling as separate draws: ON medians, OFF medians, then
    cycle-to-cycle noise by bit -- the oracle for the one-draw form."""
    bits = np.asarray(bits, dtype=bool)
    r_on = params.r_on * rng.lognormal(0.0, model.sigma_on_d2d, bits.shape)
    r_off = params.r_off * rng.lognormal(0.0, model.sigma_off_d2d, bits.shape)
    sigma = np.where(bits, model.sigma_on_c2c, model.sigma_off_c2c)
    return np.where(bits, r_on, r_off) * rng.lognormal(0.0, sigma)


sigmas = st.one_of(st.just(0.0), st.floats(0.0, 0.6, allow_nan=False))


@settings(max_examples=60)
@given(shape=st.sampled_from([(1,), (7,), (3, 5), (2, 3, 4)]),
       model=st.builds(VariabilityModel, sigmas, sigmas, sigmas, sigmas),
       seed=st.integers(0, 2**32 - 1))
def test_one_draw_equals_three_draw_reference(shape, model, seed):
    bits = np.random.default_rng(seed).integers(0, 2, shape)
    got_rng, want_rng = (np.random.default_rng(seed) for _ in range(2))
    got = sample_resistances(bits, PARAMS, model, got_rng)
    want = three_draw_reference(bits, PARAMS, model, want_rng)
    np.testing.assert_array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestValidation:
    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            VariabilityModel(sigma_on_d2d=-0.1)
