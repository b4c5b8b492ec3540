"""Service front-end behavior: lifecycle, knobs, metrics, serve_all."""

import asyncio
import json
import logging
import sys
import threading

import pytest

from repro.api import Engine, ScenarioSpec
from repro.parallel import ResultCache
from repro.parallel import pool as pool_module
from repro.serving import (
    Service,
    ServiceOverloaded,
    ServingError,
    WorkerPool,
    render_metrics,
    serve_all,
)

SPEC = ScenarioSpec(engine="mvp_batched", workload="database", size=96,
                    items=2, batch=4, seed=3)
ANALOG = ScenarioSpec(engine="analog_mvm", workload="mlp_inference",
                      batch=2, seed=7)
#: Seed of the requests the ``hold`` fixture keeps in flight.
HELD_SEED = 40


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
            return service.metrics()

    metrics = run(main())
    assert metrics["counters"]["service_errors_total"] == 1
    assert metrics["counters"]["service_completed_total"] == 0
    assert metrics["gauges"]["service_queue_depth"] == 0


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
            return service.metrics()

    metrics = run(main())
    counters = metrics["counters"]
    assert counters["service_requests_total"] == 1
    assert counters["service_completed_total"] == 1
    assert metrics["gauges"]["pool_workers"] == 1
    assert counters["service_dispatches_total"] == \
        counters["service_dispatched_requests_total"] == 1
    assert metrics["histograms"]["service_time_seconds"]["count"] == 1
    assert not any(name.startswith("result_cache_") for name in counters)
    rendered = render_metrics(metrics)
    assert "requests: 1 admitted" in rendered
    assert "dispatches:" in rendered


def test_metrics_json_round_trips():
    async def main():
        async with Service(workers=2, pool_mode="inline") as service:
            await service.submit(SPEC)
            return service.metrics()

    metrics = run(main())
    assert json.loads(json.dumps(metrics)) == metrics
    assert metrics["gauges"]["pool_workers"] == 2


def test_render_metrics_on_an_idle_service():
    async def main():
        async with Service(workers=1, pool_mode="inline") as service:
            return render_metrics(service.metrics())

    rendered = run(main())
    for fragment in ("requests:", "cache tier:", "dispatches:",
                     "queue:", "latency:", "pool:"):
        assert fragment in rendered
    # No result cache attached: the optional line is absent.
    assert "result cache:" not in rendered


@pytest.mark.parametrize("mode", ["inline", "fork"])
def test_metrics_count_sequential_analog_requests(mode):
    async def main():
        async with Service(workers=2, pool_mode=mode) as service:
            for spec in (ANALOG, ANALOG.replaced(batch=3)):
                assert (await service.submit(spec)).ok
            return service.metrics()

    metrics = run(main())
    assert metrics["counters"]["pool_tasks_done_total"] == 2
    assert metrics["gauges"]["pool_workers"] == 2
    # Nothing keeps a mapped fabric between runs, so no series counts one.
    names = (*metrics["counters"], *metrics["gauges"])
    assert not any("fabric" in name for name in names)


def test_metrics_snapshots_balance_under_concurrent_reads():
    """Every snapshot balances: admitted == answered + still queued.

    Admission and settlement each update several series under the
    service's lock, and metrics() freezes them under the same lock, so
    readers on other threads never see half an update.
    """
    specs = [SPEC.replaced(seed=seed) for seed in range(100, 140)]
    snapshots = []
    stop = threading.Event()

    async def main():
        async with Service(workers=2, pool_mode="inline",
                           max_queue=len(specs)) as service:
            def watch():
                while not stop.is_set():
                    snapshots.append(service.metrics())

            watchers = [threading.Thread(target=watch) for _ in range(4)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for watcher in watchers:
                    watcher.start()
                await asyncio.wait_for(serve_all(service, specs), 60.0)
            finally:
                stop.set()
                for watcher in watchers:
                    watcher.join(timeout=30.0)
                sys.setswitchinterval(interval)
            assert not any(watcher.is_alive() for watcher in watchers)

    run(main())
    assert snapshots
    for snapshot in snapshots:
        counters, gauges = snapshot["counters"], snapshot["gauges"]
        answered = counters["service_completed_total"] \
            + counters["service_errors_total"]
        assert counters["service_requests_total"] == \
            answered + gauges["service_queue_depth"]
        assert snapshot["histograms"]["service_time_seconds"]["count"] \
            == answered
        assert gauges["service_peak_queue_depth"] >= \
            gauges["service_queue_depth"]


@pytest.fixture()
def hold(monkeypatch):
    """Keep requests seeded ``HELD_SEED`` executing until released.

    Patches the inline pool's task body, so the held requests stay
    admitted (and their queue slots taken) while a test looks.
    """
    real = pool_module._execute_task
    release = threading.Event()

    def held(kind, payload):
        if payload.seed == HELD_SEED:
            assert release.wait(timeout=60.0)
        return real(kind, payload)

    monkeypatch.setattr(pool_module, "_execute_task", held)
    return release


def test_queue_depth_tracks_admission_and_settlement(hold):
    held = SPEC.replaced(seed=HELD_SEED)

    async def main():
        async with Service(workers=1, pool_mode="inline",
                           max_queue=2) as service:
            first = asyncio.ensure_future(service.submit(held))
            twin = asyncio.ensure_future(service.submit(held))
            await asyncio.sleep(0.05)  # both admitted, one dispatched
            # The overload error reports the depth at admission time.
            with pytest.raises(ServiceOverloaded) as excinfo:
                await service.submit(SPEC)
            assert excinfo.value.queue_depth == 2
            hold.set()
            await asyncio.gather(first, twin)
            return service.metrics()

    metrics = run(main())
    assert metrics["gauges"]["service_queue_depth"] == 0
    assert metrics["gauges"]["service_peak_queue_depth"] == 2
    assert metrics["counters"]["service_completed_total"] == 1
    assert metrics["counters"]["service_deduped_total"] == 1


def test_metrics_count_every_stage(hold, tmp_path):
    cached = SPEC.replaced(seed=5)
    ResultCache(tmp_path).store(Engine.from_spec(cached).run())
    held = SPEC.replaced(seed=HELD_SEED)

    async def main():
        async with Service(workers=1, pool_mode="inline", cache=tmp_path,
                           max_queue=2) as service:
            await service.submit(cached)                       # cache hit
            with pytest.raises(ValueError, match="no_such_knob"):
                await service.submit(                          # error
                    SPEC.replaced(params={"no_such_knob": 1}))
            mean = service.metrics()["histograms"][
                "service_time_seconds"]["mean_seconds"]
            first = asyncio.ensure_future(service.submit(held))
            twin = asyncio.ensure_future(service.submit(held))  # deduped
            await asyncio.sleep(0.05)
            with pytest.raises(ServiceOverloaded) as excinfo:  # rejected
                await service.submit(SPEC)
            hold.set()
            await asyncio.gather(first, twin)                  # completed
            return service.metrics(), mean, excinfo.value

    metrics, mean, overload = run(main())
    counters = metrics["counters"]
    assert counters["service_requests_total"] == 4
    assert counters["service_cache_hits_total"] == 1
    assert counters["service_cache_misses_total"] == 2
    assert counters["service_deduped_total"] == 1
    assert counters["service_rejected_total"] == 1
    assert counters["service_dispatches_total"] == 2
    assert counters["service_dispatched_requests_total"] == 2
    assert counters["service_completed_total"] == 1
    assert counters["service_errors_total"] == 1
    latency = metrics["histograms"]["service_time_seconds"]
    assert latency["count"] == 2
    # The retry-after hint scales the backlog (2 requests on 1 worker)
    # by the mean service time, which only the error had set.
    assert mean > 0
    assert overload.retry_after_seconds == pytest.approx(
        max(0.05, mean * 2 / 1))


def test_failed_cache_store_still_settles(monkeypatch, tmp_path, caplog):
    def full_disk(self, result):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(ResultCache, "store", full_disk)

    async def main():
        async with Service(workers=1, pool_mode="inline",
                           cache=tmp_path) as service:
            # The second submit dedups onto the first one's future.
            results = await asyncio.wait_for(asyncio.gather(
                service.submit(SPEC), service.submit(SPEC)), timeout=20.0)
            return results, service.metrics()

    with caplog.at_level(logging.WARNING, logger="repro.serving"):
        results, metrics = run(main())
    assert all(result.ok for result in results)
    assert metrics["gauges"]["service_queue_depth"] == 0
    assert metrics["counters"]["service_completed_total"] == 1
    assert metrics["counters"]["service_deduped_total"] == 1
    assert "cache_store_failed" in caplog.text


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
