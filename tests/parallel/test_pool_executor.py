"""ParallelRunner on the WorkerPool, per call or warm (``executor=``).

Without ``executor=`` the runner enters a pool for each call that has
work to fan out; a started :class:`~repro.parallel.pool.WorkerPool`
passed as ``executor=`` replaces that per-call pool: the runner keeps
owning the cache tier (lookups before execution, stores after) while
execution and shard merging go to the warm workers.  Results must be
bit-identical to the runner's own execution, because both sides run
the same shard bodies and the same merge fold.  Sweeps inherit the
pool's crash recovery.
"""

import os

import pytest

from repro.api import Engine, ScenarioSpec
from repro.parallel import ParallelRunner, SweepRunner, WorkerPool
from repro.parallel import pool as pool_module

SPEC = ScenarioSpec(engine="mvp_batched", workload="database", size=96,
                    items=2, batch=5, seed=3)


def comparable(result) -> dict:
    data = result.to_dict()
    for key in ("wall_seconds", "parallel", "cache"):
        data["provenance"].pop(key, None)
    return data


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(workers=2, mode="fork") as warm:
        yield warm


def test_executor_run_matches_own_execution(pool):
    own = ParallelRunner(workers=2).run(SPEC)
    delegated = ParallelRunner(executor=pool).run(SPEC)
    assert comparable(delegated) == comparable(own)
    assert delegated.provenance["parallel"]["pool"] == "warm-fork"


def test_executor_run_many_matches(pool):
    specs = [SPEC, SPEC.replaced(seed=4)]
    own = ParallelRunner(workers=1).run_many(specs)
    delegated = ParallelRunner(executor=pool).run_many(specs)
    for a, b in zip(delegated, own):
        assert comparable(a) == comparable(b)


def test_cache_stays_with_the_runner(pool, tmp_path):
    runner = ParallelRunner(executor=pool, cache=tmp_path / "cache")
    first = runner.run(SPEC)
    assert "cache" not in first.provenance
    second = runner.run(SPEC)
    assert second.provenance["cache"]["hit"] is True
    assert runner.cache.stats().hits == 1
    assert comparable(second) == comparable(first)


def test_cached_specs_skip_the_pool(pool, tmp_path):
    runner = ParallelRunner(executor=pool, cache=tmp_path / "cache")
    runner.run(SPEC)
    done_before = pool.stats().tasks_done
    runner.run(SPEC)  # pure cache hit
    assert pool.stats().tasks_done == done_before


def test_executor_validation():
    with pytest.raises(ValueError, match="executor"):
        ParallelRunner(executor=object())
    with pytest.raises(ValueError, match="executor"):
        ParallelRunner(executor="warm")


def test_sweep_recovers_from_a_worker_crash(monkeypatch, tmp_path):
    """A cell whose worker dies on its first attempt is retried on a
    fresh worker; the sweep still equals the in-process one."""
    specs = [SPEC.replaced(seed=seed) for seed in range(4)]
    doomed = specs[2]
    marker = tmp_path / "crashed-once"
    real = pool_module._execute_task

    def crash_once(kind, payload):
        if kind == "spec" and payload == doomed:
            try:
                marker.open("x").close()
            except FileExistsError:
                pass  # the retry: run normally
            else:
                os._exit(13)
        return real(kind, payload)

    # Forked workers inherit the patched module global.
    monkeypatch.setattr(pool_module, "_execute_task", crash_once)
    fanned = SweepRunner(workers=2).run(specs)
    assert marker.exists()  # the crash really happened
    monkeypatch.setattr(pool_module, "_execute_task", real)
    serial = SweepRunner(workers=1).run(specs)
    for a, b in zip(fanned, serial):
        assert comparable(a) == comparable(b)
        assert a.cost == b.cost
        assert a.item_costs == b.item_costs
