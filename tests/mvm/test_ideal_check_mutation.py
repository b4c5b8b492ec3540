"""The ideal golden check catches a broken electrical read path.

On ideal specs an analog workload's ``checks_passed`` compares the
fabric's outputs with the digital reference bit for bit.  That check
guards the electrical path only if the reference does not share it:
here every conductance row sum is inflated by 30% -- a mutation the
ADC's rounding absorbs on most reads -- and every run must fail its
check, at the benchmark's MLP shapes and on the temporal-correlation
workload alike.
"""

import pytest

from repro.api.engines import run
from repro.api.spec import ScenarioSpec
from repro.mvm.kernel import TileStack

#: ``mlp_inference`` at served_mlp's and fault_sweep's shapes, plus a
#: temporal-correlation workload; all ideal, all in-process.
SHAPES = {
    "mlp_128x16x16": dict(workload="mlp_inference",
                          size=128, items=16, batch=16),
    "mlp_32x16x4": dict(workload="mlp_inference",
                        size=32, items=16, batch=4),
    "temporal_64x8x4": dict(workload="temporal_correlation",
                            size=64, items=8, batch=4),
}


@pytest.fixture
def inflated_row_sums(monkeypatch):
    original = TileStack._row_sums

    def inflated(self, *args, **kwargs):
        return 1.3 * original(self, *args, **kwargs)

    monkeypatch.setattr(TileStack, "_row_sums", inflated)


@pytest.mark.parametrize("seed", range(1, 6))
@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES)
def test_inflated_row_sums_fail_the_ideal_check(
        inflated_row_sums, shape, seed):
    result = run(ScenarioSpec(engine="analog_mvm", seed=seed, **shape))
    assert result.outputs["checks_passed"] is False


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES)
def test_unmutated_runs_pass_the_ideal_check(shape):
    result = run(ScenarioSpec(engine="analog_mvm", seed=1, **shape))
    assert result.outputs["checks_passed"] is True
