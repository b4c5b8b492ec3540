"""WorkerPool basics: execution modes, equivalence, health, stats.

The robustness suite (crashes, retries, overload) lives in
``test_pool_robustness.py``; the served-request determinism suite in
``test_coalesce_determinism.py``.  This file pins the everyday
contract: every pool mode computes exactly what the plain engine
facade computes, lifecycle is safe, a round trip waits on no sleep,
and the counters add up.
"""

import statistics
import time

import pytest

from repro.api import Engine, ScenarioSpec
from repro.serving import ServingError, WorkerPool

SPEC = ScenarioSpec(engine="mvp_batched", workload="database", size=96,
                    items=2, batch=5, seed=3)
ANALOG = ScenarioSpec(engine="analog_mvm", workload="mlp_inference",
                      batch=2, seed=7)


def comparable(result) -> dict:
    data = result.to_dict()
    for key in ("wall_seconds", "parallel"):
        data["provenance"].pop(key, None)
    return data


@pytest.fixture(scope="module")
def serial():
    return Engine.from_spec(SPEC).run()


@pytest.mark.parametrize("mode", ["inline", "fork"])
def test_run_matches_plain_engine(mode, serial):
    with WorkerPool(workers=2, mode=mode) as pool:
        result = pool.run(SPEC)
    assert comparable(result) == comparable(serial)
    assert result.cost == serial.cost
    assert result.item_costs == serial.item_costs


def test_sharded_run_records_pool_provenance():
    with WorkerPool(workers=2, mode="fork") as pool:
        result = pool.run(SPEC)
    parallel = result.provenance["parallel"]
    assert parallel["workers"] == 2
    assert parallel["pool"] == "warm-fork"
    assert [s["offset"] for s in parallel["shards"]] == [0, 3]


def test_run_many_preserves_order(serial):
    other = SPEC.replaced(seed=4)
    other_serial = Engine.from_spec(other).run()
    with WorkerPool(workers=2, mode="fork") as pool:
        results = pool.run_many([SPEC, other, SPEC])
    assert comparable(results[0]) == comparable(serial)
    assert comparable(results[1]) == comparable(other_serial)
    assert comparable(results[2]) == comparable(serial)


def spec_tasks_in_a_row(pool, specs):
    return [pool.submit("spec", spec).result(timeout=60.0)
            for spec in specs]


def test_spec_tasks_in_a_row_match_serial_runs(serial):
    with WorkerPool(workers=1, mode="fork") as pool:
        results = spec_tasks_in_a_row(pool, [SPEC, SPEC.replaced(seed=4)])
    assert comparable(results[0]) == comparable(serial)
    assert comparable(results[1]) == comparable(
        Engine.from_spec(SPEC.replaced(seed=4)).run())


def test_warm_fabric_reused_across_spec_tasks():
    with WorkerPool(workers=1, mode="fork") as pool:
        results = spec_tasks_in_a_row(
            pool, [ANALOG, ANALOG.replaced(batch=3)])
        stats = pool.stats()
    assert all(r.ok for r in results)
    # Same structure hash (batch excluded): the second task reuses
    # the first task's mapped fabric template on the same worker.
    assert stats.fabric_cache.hits >= 1
    assert stats.fabric_cache.stores >= 1


def test_round_trip_waits_on_no_sleep():
    """A result wakes the collector at once; no poll interval is paid.

    A tiny spec runs in about a millisecond, so a round trip through
    one warm worker takes a few; a fixed sleep anywhere on the result
    path shows up in every one.
    """
    tiny = SPEC.replaced(size=32, batch=1)
    with WorkerPool(workers=1, mode="fork") as pool:
        pool.submit("spec", tiny).result(timeout=60.0)  # warm-up
        round_trips = []
        for seed in range(20):
            started = time.perf_counter()
            pool.submit("spec", tiny.replaced(seed=seed)).result(
                timeout=60.0)
            round_trips.append(time.perf_counter() - started)
    assert statistics.median(round_trips) < 0.025


def test_ping_reaches_every_worker():
    with WorkerPool(workers=2, mode="fork") as pool:
        assert pool.ping(timeout=10.0) == {0: True, 1: True}


def test_stats_counts_tasks():
    with WorkerPool(workers=2, mode="inline") as pool:
        pool.run_many([SPEC, SPEC.replaced(seed=5)])
        stats = pool.stats()
    assert stats.tasks_done == 2
    assert stats.tasks_failed == 0
    assert stats.restarts == 0
    assert stats.busy_seconds > 0


def test_task_error_propagates_and_is_counted():
    bad = SPEC.replaced(params={"no_such_knob": 1})
    with WorkerPool(workers=1, mode="fork") as pool:
        with pytest.raises(ValueError, match="no_such_knob"):
            pool.run(bad)
        # The worker survives its task's exception.
        assert pool.run(SPEC).ok
        stats = pool.stats()
    assert stats.tasks_failed == 1
    assert stats.tasks_done == 1
    assert stats.restarts == 0


def test_submit_after_shutdown_raises():
    pool = WorkerPool(workers=1, mode="inline").start()
    pool.shutdown()
    with pytest.raises(ServingError, match="not running"):
        pool.submit("spec", SPEC)


def test_shutdown_is_idempotent():
    pool = WorkerPool(workers=1, mode="inline").start()
    pool.shutdown()
    pool.shutdown()
    assert pool.stats().alive == 0


def test_constructor_validation():
    with pytest.raises(ValueError, match="workers"):
        WorkerPool(workers=0)
    with pytest.raises(ValueError, match="mode"):
        WorkerPool(mode="threads")
    with pytest.raises(ValueError, match="max_attempts"):
        WorkerPool(max_attempts=0)
    with WorkerPool(workers=1, mode="inline") as pool:
        with pytest.raises(ValueError, match="task kind"):
            pool.submit("mystery", SPEC)
