"""Service front-end behavior: lifecycle, knobs, stats, serve_all."""

import asyncio
import threading

import pytest

from repro.api import ScenarioSpec
from repro.parallel import pool as pool_module
from repro.serving import (
    Service,
    ServiceOverloaded,
    ServingError,
    WorkerPool,
    serve_all,
)

SPEC = ScenarioSpec(engine="mvp_batched", workload="database", size=96,
                    items=2, batch=4, seed=3)


def run(coro):
    return asyncio.run(coro)


def test_constructor_validation():
    with pytest.raises(ValueError, match="max_queue"):
        Service(max_queue=0)


def test_submit_before_start_raises():
    service = Service(workers=1, pool_mode="inline")

    async def main():
        with pytest.raises(ServingError, match="not running"):
            await service.submit(SPEC)

    run(main())


def test_submit_accepts_plain_dicts():
    async def main():
        async with Service(workers=1, pool_mode="inline") as service:
            return await service.submit({
                "engine": "mvp_batched", "workload": "database",
                "size": 96, "items": 2, "batch": 4, "seed": 3,
            })

    result = run(main())
    assert result.ok
    assert result.spec == SPEC


def test_bad_spec_error_reaches_the_submitter():
    async def main():
        async with Service(workers=1, pool_mode="inline") as service:
            with pytest.raises(ValueError, match="no_such_knob"):
                await service.submit(
                    SPEC.replaced(params={"no_such_knob": 1}))
            return service.stats()

    stats = run(main())
    assert stats.errors == 1
    assert stats.completed == 0
    assert stats.queue_depth == 0


def test_external_pool_is_not_shut_down():
    pool = WorkerPool(workers=1, mode="inline").start()

    async def main():
        async with Service(pool=pool) as service:
            await service.submit(SPEC)

    run(main())
    # The service closed, but the caller's pool keeps serving.
    assert pool.run(SPEC).ok
    pool.shutdown()


def test_close_drains_a_request_still_executing(monkeypatch):
    real = pool_module._execute_task
    started, release = threading.Event(), threading.Event()

    def held(kind, payload):
        started.set()
        assert release.wait(timeout=60.0)
        return real(kind, payload)

    monkeypatch.setattr(pool_module, "_execute_task", held)

    async def main():
        loop = asyncio.get_running_loop()
        service = Service(workers=1, pool_mode="inline").start()
        pending = asyncio.ensure_future(service.submit(SPEC))
        assert await loop.run_in_executor(None, started.wait, 60.0)
        closing = asyncio.ensure_future(service.close())
        await asyncio.sleep(0.05)
        # close() waits for the request it admitted.
        assert not closing.done()
        assert not pending.done()
        release.set()
        await closing
        return await pending

    assert run(main()).ok


def test_stats_snapshot_shape():
    async def main():
        async with Service(workers=1, pool_mode="inline") as service:
            await service.submit(SPEC)
            return service.stats()

    stats = run(main())
    data = stats.to_dict()
    assert data["requests"] == 1
    assert data["completed"] == 1
    assert data["pool"]["workers"] == 1
    assert data["dispatches"] == data["dispatched_requests"] == 1
    assert data["service_time"]["count"] == 1
    assert data["result_cache"] is None
    rendered = stats.render()
    assert "requests: 1 admitted" in rendered
    assert "dispatches:" in rendered


def test_serve_all_retries_after_overload():
    calls = {"n": 0}

    class Flaky:
        def __init__(self, service):
            self.service = service

        async def submit(self, spec):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ServiceOverloaded(
                    queue_depth=1, limit=1,
                    retry_after_seconds=0.01)
            return await self.service.submit(spec)

    async def main():
        async with Service(workers=1, pool_mode="inline") as service:
            results = await serve_all(Flaky(service), [SPEC])
            return results

    results = run(main())
    assert len(results) == 1 and results[0].ok
    assert calls["n"] == 2
