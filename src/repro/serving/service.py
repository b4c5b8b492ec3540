"""The asyncio front-end: dedup, cache tier, backpressure, dispatch.

:class:`Service` is the request path concurrent callers talk to.  A
submitted :class:`~repro.api.spec.ScenarioSpec` flows through four
stages, each of which may answer it without touching the next:

1. **dedup** -- a submission whose ``canonical_hash`` matches a request
   already in flight awaits that request's future instead of computing
   twice (pure functions of the spec make sharing safe);
2. **cache tier** -- a :class:`~repro.parallel.cache.ResultCache` hit
   is answered immediately, no worker touched;
3. **backpressure** -- if admitted-but-incomplete requests already
   exceed ``max_queue``, the submission is rejected *before any work is
   queued* with a typed :class:`~repro.serving.errors.ServiceOverloaded`
   carrying a suggested ``retry_after_seconds``;
4. **dispatch** -- each surviving request becomes one ``"spec"`` task
   on the :class:`~repro.parallel.pool.WorkerPool`, so concurrent
   requests spread across every worker.  Tasks are submitted from the
   event loop's default executor, so an inline pool never runs engine
   work on the loop thread.

Workers run the plain ``Engine.from_spec(spec).run()`` body, so served
results are bit-identical to serial engine calls by construction.

Every stage increments a ``service_*`` counter in the service's
metrics registry and emits one structured ``key=value`` log line on the
``repro.serving`` logger, so queue health is observable live.
:meth:`Service.metrics` snapshots those series together with the pool's
and the cache's; callers read each number by series name, and
:func:`render_metrics` prints the text summary ``repro serve`` shows
(``repro serve --metrics-json`` persists the snapshot).
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time
from typing import Any, Mapping, Sequence

from repro.api.result import RunResult
from repro.api.spec import ScenarioSpec
from repro.obs.metrics import Counter, MetricsRegistry, merge_snapshots
from repro.obs.trace import active_tracer, span
from repro.parallel.cache import ResultCache
from repro.parallel.pool import WorkerPool
from repro.serving.errors import ServiceOverloaded, ServingError

__all__ = ["Service", "render_metrics"]

_LOG = logging.getLogger("repro.serving")

#: Fallback mean-service estimate (seconds) for the retry-after hint
#: before any request has completed.
_COLD_SERVICE_ESTIMATE = 0.1


class _Request:
    """One admitted submission on its way through the pool."""

    __slots__ = ("spec", "key", "future", "admitted_at", "trace_t0")

    def __init__(self, spec: ScenarioSpec, key: str,
                 future: asyncio.Future) -> None:
        self.spec = spec
        self.key = key
        self.future = future
        self.admitted_at = time.perf_counter()
        # Tracer-clock admission stamp (async stages cannot hold a
        # span context manager across awaits, so the request span is
        # recorded explicitly at settle time from it).
        self.trace_t0: float | None = None


class Service:
    """Async request front-end over a warm worker pool.

    Args:
        pool: a :class:`~repro.parallel.pool.WorkerPool` to serve from.
            If None, the service creates (and owns) one from
            ``workers``/``pool_mode``.
        workers: worker count for an owned pool.
        pool_mode: start method for an owned pool (see
            :class:`WorkerPool`; "inline" serves synchronously
            in-process -- the single-CPU and unit-test configuration).
        cache: result cache tier -- a
            :class:`~repro.parallel.cache.ResultCache`, a directory
            path, or None to disable the tier.
        max_queue: bound on admitted-but-incomplete requests; beyond it
            submissions fail fast with
            :class:`~repro.serving.errors.ServiceOverloaded`.

    Use as an async context manager, or call :meth:`start` /
    :meth:`close` explicitly::

        async with Service(workers=4, cache="~/.cache/repro") as svc:
            results = await asyncio.gather(
                *(svc.submit(spec) for spec in specs))
    """

    def __init__(
        self,
        pool: WorkerPool | None = None,
        *,
        workers: int = 2,
        pool_mode: str = "auto",
        cache: ResultCache | str | None = None,
        max_queue: int = 64,
    ) -> None:
        if not isinstance(max_queue, int) or isinstance(max_queue, bool) \
                or max_queue < 1:
            raise ValueError("max_queue must be a positive integer")
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self._owns_pool = pool is None
        self._pool = pool if pool is not None else WorkerPool(
            workers=workers, mode=pool_mode)
        self.cache = cache
        self.max_queue = max_queue
        # Lifetime ``service_*`` series.  _lock keeps each compound
        # update (admission: requests, depth and peak; settlement:
        # outcome, depth and latency) atomic against metrics().
        self._lock = threading.Lock()
        self._metrics = MetricsRegistry()
        counter = self._metrics.counter
        self._requests = counter("service_requests_total")
        self._completed = counter("service_completed_total")
        self._errors = counter("service_errors_total")
        self._rejected = counter("service_rejected_total")
        self._cache_hits = counter("service_cache_hits_total")
        self._cache_misses = counter("service_cache_misses_total")
        self._deduped = counter("service_deduped_total")
        self._dispatches = counter("service_dispatches_total")
        self._dispatched_requests = counter(
            "service_dispatched_requests_total")
        self._queue_depth = self._metrics.gauge("service_queue_depth")
        self._peak_queue_depth = self._metrics.gauge(
            "service_peak_queue_depth")
        self._service_time = self._metrics.histogram("service_time_seconds")
        self._inflight: dict[str, asyncio.Future] = {}
        self._dispatch_tasks: set[asyncio.Task] = set()
        self._started = False
        self._closed = False

    @property
    def pool(self) -> WorkerPool:
        return self._pool

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "Service":
        """Start the underlying pool (idempotent)."""
        if self._closed:
            raise ServingError("service already closed")
        if not self._started:
            self._pool.start()
            self._started = True
            _LOG.info(
                "event=start workers=%d mode=%s max_queue=%d cache=%s",
                self._pool.workers, self._pool.mode, self.max_queue,
                "on" if self.cache is not None else "off")
        return self

    async def __aenter__(self) -> "Service":
        return self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def close(self) -> None:
        """Drain in-flight dispatches, stop an owned pool."""
        if self._closed:
            return
        self._closed = True
        while self._dispatch_tasks:
            await asyncio.gather(*list(self._dispatch_tasks),
                                 return_exceptions=True)
        if self._owns_pool and self._started:
            await asyncio.get_running_loop().run_in_executor(
                None, self._pool.shutdown)
        _LOG.info("event=close requests=%d completed=%d",
                  self._requests.value, self._completed.value)

    # -- request path ---------------------------------------------------------

    async def submit(
        self, spec: ScenarioSpec | Mapping[str, Any]
    ) -> RunResult:
        """Submit one scenario; resolves to its RunResult.

        Raises:
            ServiceOverloaded: the bounded queue is full (retryable).
            ServingError: the service is closed, or the request's
                workers kept crashing (:class:`WorkerCrashed`).
            Exception: whatever the engine raises for a bad spec.
        """
        if self._closed or not self._started:
            raise ServingError("service is not running")
        if not isinstance(spec, ScenarioSpec):
            spec = ScenarioSpec.from_dict(spec)
        key = spec.canonical_hash()
        tracer = active_tracer()
        t0 = tracer.now() if tracer is not None else 0.0

        twin = self._inflight.get(key)
        if twin is not None:
            self._admit(self._deduped)
            _LOG.debug("event=dedup key=%.12s", key)
            try:
                return await asyncio.shield(twin)
            finally:
                self._release()
                if tracer is not None:
                    tracer.record_span(
                        "serve.request", t0, tracer.now() - t0,
                        outcome="deduped", key=key[:12])

        if self.cache is not None:
            cached = self.cache.load(spec)
            if cached is not None:
                self._admit(self._cache_hits)
                self._release()
                _LOG.debug("event=cache_hit key=%.12s", key)
                if tracer is not None:
                    tracer.record_span(
                        "serve.request", t0, tracer.now() - t0,
                        outcome="cache_hit", key=key[:12])
                return cached

        with self._lock:
            depth = self._queue_depth.value
        if depth >= self.max_queue:
            retry_after = self._retry_after(depth)
            self._rejected.inc()
            _LOG.warning(
                "event=reject depth=%d limit=%d retry_after=%g",
                depth, self.max_queue, retry_after)
            if tracer is not None:
                tracer.record_span(
                    "serve.request", t0, tracer.now() - t0,
                    outcome="rejected", key=key[:12])
            raise ServiceOverloaded(
                queue_depth=depth, limit=self.max_queue,
                retry_after_seconds=retry_after)

        stages = [self._dispatches, self._dispatched_requests]
        if self.cache is not None:
            stages.append(self._cache_misses)
        self._admit(*stages)
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        request = _Request(spec, key, future)
        if tracer is not None:
            request.trace_t0 = t0
        self._inflight[key] = future
        _LOG.debug("event=dispatch key=%.12s", key)
        # The dispatch is a task of its own: a cancelled submitter (or
        # its deduped twins awaiting the same future) never stops it.
        task = loop.create_task(self._serve(request))
        self._dispatch_tasks.add(task)
        task.add_done_callback(self._dispatch_tasks.discard)
        return await asyncio.shield(future)

    def metrics(self) -> dict[str, Any]:
        """One unified registry snapshot of every serving component.

        Merges the service's ``service_*`` series (one counter per
        stage outcome, ``service_queue_depth`` and its peak, and the
        admission-to-answer ``service_time_seconds`` histogram), the
        pool's ``pool_*`` series (:meth:`WorkerPool.metrics`) and --
        when the cache tier is on -- the cache's ``result_cache_*``
        series (prefixes keep the merge collision-free).  This is what
        ``repro serve --metrics-json`` writes and what the
        Prometheus-style exposition renders.
        """
        with self._lock:
            own = self._metrics.snapshot()
        snapshots = [own, self._pool.metrics()]
        if self.cache is not None:
            snapshots.append(self.cache.metrics())
        return merge_snapshots(*snapshots)

    def _admit(self, *stages: Counter) -> None:
        """Count one admission, and the stages it passed, atomically."""
        with self._lock:
            self._requests.inc()
            for stage in stages:
                stage.inc()
            self._queue_depth.inc()
            self._peak_queue_depth.set(max(self._peak_queue_depth.value,
                                           self._queue_depth.value))

    def _release(self) -> None:
        """Release the queue slot of a request that never dispatched
        (deduped onto a twin, or answered by the cache tier)."""
        with self._lock:
            self._queue_depth.dec()

    # -- dispatch -------------------------------------------------------------

    def _run_on_pool(self, spec: ScenarioSpec) -> RunResult:
        """Executor-thread body of one dispatch.

        The ``serve.dispatch`` span is opened on the dispatching thread
        so the worker's shipped spans adopt under it (the pool reads
        the submitter's open span as the adoption parent).
        """
        with span("serve.dispatch"):
            return self._pool.submit("spec", spec).result()

    async def _serve(self, request: _Request) -> None:
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(
                None, self._run_on_pool, request.spec)
        except Exception as exc:  # noqa: BLE001 -- routed to the future
            self._settle(request, error=exc)
            return
        if self.cache is not None:
            try:
                self.cache.store(result)
            except Exception as exc:  # noqa: BLE001 -- the tier degrades
                # The request still gets the result it computed; only
                # the replay of later identical requests is lost.
                _LOG.warning("event=cache_store_failed key=%.12s error=%r",
                             request.key, exc, exc_info=True)
        self._settle(request, result=result)

    def _settle(
        self,
        request: _Request,
        result: RunResult | None = None,
        error: BaseException | None = None,
    ) -> None:
        if self._inflight.get(request.key) is request.future:
            del self._inflight[request.key]
        elapsed = time.perf_counter() - request.admitted_at
        with self._lock:
            (self._completed if error is None else self._errors).inc()
            self._queue_depth.dec()
            self._service_time.observe(elapsed)
        tracer = active_tracer()
        if tracer is not None and request.trace_t0 is not None:
            tracer.record_span(
                "serve.request", request.trace_t0,
                tracer.now() - request.trace_t0,
                outcome="completed" if error is None else "error",
                key=request.key[:12])
        if request.future.done():
            return
        if error is not None:
            request.future.set_exception(error)
        else:
            request.future.set_result(result)

    # -- backpressure ---------------------------------------------------------

    def _retry_after(self, depth: int) -> float:
        """Suggested backoff: current backlog over recent service rate.

        Coarse by design -- the estimate only needs the right order of
        magnitude, and the 50 ms floor keeps naive retry loops from
        spinning before any request has calibrated the mean.
        """
        with self._lock:
            mean = self._service_time.mean_seconds
        mean = mean or _COLD_SERVICE_ESTIMATE
        return max(0.05, mean * depth / self._pool.workers)


async def serve_all(
    service: Service,
    specs: Sequence[ScenarioSpec | Mapping[str, Any]],
    *,
    max_retries: int = 5,
) -> list[RunResult]:
    """Drive ``specs`` through ``service`` concurrently, in order.

    The canonical client loop (used by ``repro serve`` and the demo):
    every spec is submitted at once, and :class:`ServiceOverloaded`
    rejections honor ``retry_after_seconds`` before resubmitting, up to
    ``max_retries`` times.
    """

    async def one(spec) -> RunResult:
        for _ in range(max_retries):
            try:
                return await service.submit(spec)
            except ServiceOverloaded as exc:
                await asyncio.sleep(exc.retry_after_seconds)
        return await service.submit(spec)

    return list(await asyncio.gather(*(one(s) for s in specs)))


def render_metrics(snapshot: Mapping[str, Any]) -> str:
    """The text summary of a :meth:`Service.metrics` snapshot.

    One line per stage, read by series name: admissions and outcomes,
    cache tier and dedup, dispatches, queue depth, latency, the pool
    and -- only when the snapshot holds the cache tier's
    ``result_cache_*`` series -- the result cache.
    """
    counters, gauges = snapshot["counters"], snapshot["gauges"]
    latency = snapshot["histograms"]["service_time_seconds"]
    lines = [
        f"requests: {counters['service_requests_total']} admitted, "
        f"{counters['service_completed_total']} completed, "
        f"{counters['service_errors_total']} errors, "
        f"{counters['service_rejected_total']} rejected",
        f"cache tier: {counters['service_cache_hits_total']} hits / "
        f"{counters['service_cache_misses_total']} misses; "
        f"{counters['service_deduped_total']} deduped onto in-flight "
        "twins",
        f"dispatches: {counters['service_dispatches_total']} spec tasks "
        "to the pool",
        f"queue: depth {gauges['service_queue_depth']}, "
        f"peak {gauges['service_peak_queue_depth']}",
        f"latency: mean {latency['mean_seconds']:.4g} s, "
        f"p95 {latency['p95_seconds']:.4g} s",
        f"pool: {gauges['pool_workers_alive']}/{gauges['pool_workers']} "
        f"workers alive, {counters['pool_restarts_total']} restarts, "
        f"{counters['pool_tasks_done_total']} tasks, "
        f"busy {counters['pool_busy_seconds_total']:.4g} s",
    ]
    if "result_cache_hits_total" in counters:
        lines.append(
            f"result cache: {counters['result_cache_hits_total']} hits / "
            f"{counters['result_cache_misses_total']} misses, "
            f"{counters['result_cache_stores_total']} stores, "
            f"{counters['result_cache_evictions_total']} evictions")
    return "\n".join(lines)
