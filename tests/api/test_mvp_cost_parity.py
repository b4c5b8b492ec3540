"""MVP cost parity: a single-item run equals its batched counterpart.

Batch item 0 of an ``mvp_batched`` run serves the same table and query
plan as an ``mvp`` run of the same spec, so its counts and its whole
:class:`~repro.api.result.CostSummary` must match exactly -- energy and
latency floats included, with no tolerance.
"""

import pytest

from repro.api import ScenarioSpec, run


@pytest.mark.parametrize("size", [64, 512])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_mvp_equals_item_zero_of_mvp_batched(seed, size):
    single = run(ScenarioSpec(engine="mvp", workload="database",
                              size=size, seed=seed))
    batched = run(ScenarioSpec(engine="mvp_batched", workload="database",
                               size=size, batch=8, seed=seed))
    assert single.outputs["counts"] == [
        per_item[0] for per_item in batched.outputs["counts"]
    ]
    assert single.cost == batched.item_costs[0]
