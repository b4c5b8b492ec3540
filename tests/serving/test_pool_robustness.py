"""Pool robustness: crashes, retries, crash loops, overload rejection.

The serving layer's failure contract: a worker killed mid-run is
restarted and its task retried on the fresh worker with bit-identical
output (tasks are pure functions of their specs); a task that keeps
killing workers surfaces a typed
:class:`~repro.serving.errors.WorkerCrashed` instead of hanging; and a
full bounded queue rejects new submissions with a typed
:class:`~repro.serving.errors.ServiceOverloaded` carrying a retry-after
hint -- before any work is queued.
"""

import asyncio
import concurrent.futures
import os
import threading
import time

import pytest

from repro.api import Engine, ScenarioSpec
from repro.parallel import pool as pool_module
from repro.parallel import run_shard
from repro.serving import (
    Service,
    ServiceOverloaded,
    WorkerCrashed,
    WorkerPool,
)

#: Big enough that a worker is reliably still computing when the test
#: kills it right after the started notification (~300 ms of work on a
#: 2-vCPU x86 host).
SLOW = ScenarioSpec(engine="mvp_batched", workload="database",
                    size=8192, items=4, batch=64, seed=3)
#: A shard window of SLOW that still runs well past the kill.
SLOW_WINDOW = (SLOW, 16, 48)
QUICK = ScenarioSpec(engine="mvp_batched", workload="database", size=96,
                     items=2, batch=4, seed=3)

#: Seed marking a spec as a worker-killing bomb for the crash-loop test.
BOMB_SEED = 666


def comparable(result) -> dict:
    data = result.to_dict()
    for key in ("wall_seconds", "parallel"):
        data["provenance"].pop(key, None)
    return data


def test_worker_killed_mid_run_retries_with_identical_output():
    serial = Engine.from_spec(SLOW).run()
    with WorkerPool(workers=1, mode="fork") as pool:
        task = pool.submit("spec", SLOW)
        assert task.started.wait(timeout=30.0)
        pool._slots[0].process.kill()
        result = task.result(timeout=60.0)
        stats = pool.stats()
        # The restarted worker is a first-class pool member.
        assert pool.ping(timeout=10.0) == {0: True}
        assert pool.run(QUICK).ok
    assert comparable(result) == comparable(serial)
    assert result.cost == serial.cost
    assert stats.restarts >= 1
    assert stats.tasks_retried >= 1
    assert task.attempts == 2


def test_shard_window_killed_mid_run_retries_identically():
    want = run_shard(SLOW_WINDOW)
    with WorkerPool(workers=1, mode="fork") as pool:
        task = pool.submit("window", SLOW_WINDOW)
        assert task.started.wait(timeout=30.0)
        pool._slots[0].process.kill()
        got = task.result(timeout=60.0)
    assert task.attempts == 2
    assert got.offset == want.offset and got.count == want.count
    assert got.outputs == want.outputs
    assert got.base_cost == want.base_cost
    assert got.item_costs == want.item_costs


def test_crash_loop_surfaces_worker_crashed(monkeypatch):
    real = pool_module._execute_task

    def bomb(kind, payload):
        if isinstance(payload, ScenarioSpec) \
                and payload.seed == BOMB_SEED:
            os._exit(13)
        return real(kind, payload)

    # Forked workers inherit the patched module, so every worker that
    # picks the bomb up dies -- including the restarted ones.
    monkeypatch.setattr(pool_module, "_execute_task", bomb)
    with WorkerPool(workers=1, mode="fork", max_attempts=2) as pool:
        task = pool.submit("spec", QUICK.replaced(seed=BOMB_SEED))
        with pytest.raises(WorkerCrashed) as excinfo:
            task.result(timeout=60.0)
        assert excinfo.value.attempts == 2
        # The pool survives the loss and keeps serving healthy specs.
        assert pool.run(QUICK).ok
        stats = pool.stats()
    assert stats.restarts >= 2
    assert stats.tasks_failed >= 1


def test_idle_dead_worker_is_restarted():
    with WorkerPool(workers=2, mode="fork") as pool:
        pool._slots[1].process.kill()
        deadline = 10.0
        while pool.stats().restarts < 1 and deadline > 0:
            deadline -= 0.05
            time.sleep(0.05)
        assert pool.stats().restarts >= 1
        assert pool.ping(timeout=10.0) == {0: True, 1: True}


def test_ping_right_after_idle_worker_dies():
    """A worker found dead is restarted by the ping, then answers."""
    with WorkerPool(workers=1, mode="fork") as pool:
        dead = pool._slots[0].process
        dead.kill()
        dead.join(timeout=10.0)
        assert not dead.is_alive()
        assert pool.ping(timeout=10.0) == {0: True}
        assert pool.stats().restarts == 1
        assert pool.run(QUICK).ok


def test_ping_token_queued_before_worker_dies_is_answered():
    """A busy worker killed with the token in its inbox: the
    replacement gets the token again and answers it."""
    with WorkerPool(workers=1, mode="fork") as pool:
        task = pool.submit("spec", SLOW)
        assert task.started.wait(timeout=30.0)
        with concurrent.futures.ThreadPoolExecutor(1) as executor:
            answer = executor.submit(pool.ping, 10.0)
            deadline = time.monotonic() + 10.0
            while not pool._pongs and time.monotonic() < deadline:
                time.sleep(0.001)
            assert pool._pongs  # the token is queued behind the task
            pool._slots[0].process.kill()
            assert answer.result() == {0: True}
        assert task.result(timeout=60.0).ok
        assert task.attempts == 2


def test_bounded_queue_rejects_with_typed_overload(monkeypatch):
    real = pool_module._execute_task
    release = threading.Event()

    def held(kind, payload):
        # Task bodies block until the rejection has been checked, so
        # both admitted requests stay in flight meanwhile.
        assert release.wait(timeout=60.0)
        return real(kind, payload)

    monkeypatch.setattr(pool_module, "_execute_task", held)

    async def main():
        async with Service(workers=1, pool_mode="inline",
                           max_queue=2) as service:
            first = asyncio.ensure_future(service.submit(QUICK))
            second = asyncio.ensure_future(
                service.submit(QUICK.replaced(seed=4)))
            await asyncio.sleep(0.05)  # both admitted, both held
            with pytest.raises(ServiceOverloaded) as excinfo:
                await service.submit(QUICK.replaced(seed=5))
            err = excinfo.value
            assert err.queue_depth == 2
            assert err.limit == 2
            assert err.retry_after_seconds > 0
            assert "retry after" in str(err)
            # Released, the admitted requests complete normally (an
            # inline pool holds its lock while a task runs, so the
            # stats snapshot waits for the release).
            release.set()
            stats = service.stats()
            assert stats.rejected == 1
        results = await asyncio.gather(first, second)
        return results, service.stats()

    results, stats = asyncio.run(main())
    assert all(r.ok for r in results)
    assert stats.completed == 2
    assert stats.rejected == 1
    assert stats.queue_depth == 0


def test_worker_crashed_propagates_through_service(monkeypatch):
    real = pool_module._execute_task

    def bomb(kind, payload):
        if isinstance(payload, ScenarioSpec) \
                and payload.seed == BOMB_SEED:
            os._exit(13)
        return real(kind, payload)

    monkeypatch.setattr(pool_module, "_execute_task", bomb)

    async def main():
        async with Service(workers=1, pool_mode="fork") as service:
            with pytest.raises(WorkerCrashed):
                await service.submit(QUICK.replaced(seed=BOMB_SEED))
            result = await service.submit(QUICK)
            return result, service.stats()

    result, stats = asyncio.run(main())
    assert result.ok
    assert stats.errors == 1
    assert stats.completed == 1
