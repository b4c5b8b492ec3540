"""Observability surface of the serving subsystem.

Every stage of the request path counts what it did -- admission,
cache tier, deduplication, dispatch, completion -- and a log-bucketed
latency histogram tracks how long requests took end to end.
:meth:`StatsRecorder.snapshot` freezes the whole picture into a
:class:`ServiceStats` value: JSON-serializable (``repro serve
--stats-json``), renderable as text (the CLI summary), and cheap enough
to take per request.

The recorder is deliberately lock-guarded and allocation-light: it is
touched on every request by the asyncio front-end and from executor
threads completing pool dispatches.

Since the unified telemetry subsystem (:mod:`repro.obs`), the recorder
is an *adapter*: every counter and histogram lives as a labeled series
in a :class:`~repro.obs.metrics.MetricsRegistry` (``service_*`` metric
names), and :meth:`StatsRecorder.snapshot` freezes those series into
the same :class:`ServiceStats` dataclass as before.  The registry
snapshot itself feeds ``repro serve --metrics-json`` and the
Prometheus-style exposition.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any, Mapping

from repro.obs.metrics import DEFAULT_LATENCY_BOUNDS, Histogram, MetricsRegistry
from repro.parallel.cache import CacheStats
from repro.parallel.pool import PoolStats

__all__ = ["LatencyHistogram", "PoolStats", "ServiceStats",
           "StatsRecorder"]

#: Histogram bucket upper bounds, seconds (see
#: :data:`repro.obs.metrics.DEFAULT_LATENCY_BOUNDS`, the shared
#: definition every registry histogram defaults to).
_BOUNDS = DEFAULT_LATENCY_BOUNDS


class LatencyHistogram(Histogram):
    """A fixed-bucket log histogram of durations in seconds.

    The serving-facing name of :class:`repro.obs.metrics.Histogram`
    with the default latency bounds.  Not thread-safe by itself; the
    owning :class:`StatsRecorder` serializes access.
    """

    def __init__(self) -> None:
        super().__init__(_BOUNDS)


@dataclasses.dataclass(frozen=True)
class ServiceStats:
    """A frozen end-to-end snapshot of the service's request path.

    Attributes:
        requests: submissions admitted past input validation.
        completed: requests answered with a result.
        errors: requests answered with an exception (bad specs,
            exhausted worker retries).
        rejected: requests refused at admission by backpressure.
        cache_hits: answered from the result cache, no worker touched.
        cache_misses: cache lookups that had to compute.
        deduped: requests folded onto an identical in-flight request.
        dispatches: tasks shipped to the pool.
        dispatched_requests: requests carried by those tasks (one
            each).
        queue_depth: admitted-but-incomplete requests right now.
        peak_queue_depth: high-water mark of ``queue_depth``.
        service_time: histogram of admission-to-answer latencies.
        pool: the worker pool's own counters.
        result_cache: the cache tier's hit/miss/store/prune counters.
    """

    requests: int = 0
    completed: int = 0
    errors: int = 0
    rejected: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    deduped: int = 0
    dispatches: int = 0
    dispatched_requests: int = 0
    queue_depth: int = 0
    peak_queue_depth: int = 0
    service_time: Mapping[str, Any] = dataclasses.field(
        default_factory=dict)
    pool: PoolStats = dataclasses.field(default_factory=PoolStats)
    result_cache: CacheStats | None = None

    def to_dict(self) -> dict[str, Any]:
        data = dataclasses.asdict(self)
        data["pool"] = self.pool.to_dict()
        data["result_cache"] = (
            None if self.result_cache is None
            else self.result_cache.as_dict())
        return data

    def render(self) -> str:
        """A compact human-readable snapshot (the CLI summary block)."""
        service = self.service_time or {}
        lines = [
            f"requests: {self.requests} admitted, "
            f"{self.completed} completed, {self.errors} errors, "
            f"{self.rejected} rejected",
            f"cache tier: {self.cache_hits} hits / "
            f"{self.cache_misses} misses; {self.deduped} deduped "
            "onto in-flight twins",
            f"dispatches: {self.dispatches} spec tasks to the pool",
            f"queue: depth {self.queue_depth}, "
            f"peak {self.peak_queue_depth}",
            f"latency: mean {service.get('mean_seconds', 0.0):.4g} s, "
            f"p95 {service.get('p95_seconds', 0.0):.4g} s",
            f"pool: {self.pool.alive}/{self.pool.workers} workers "
            f"alive, {self.pool.restarts} restarts, "
            f"{self.pool.tasks_done} tasks, "
            f"busy {self.pool.busy_seconds:.4g} s",
            "warm fabric: "
            f"{self.pool.fabric_cache.hits} hits / "
            f"{self.pool.fabric_cache.misses} misses "
            f"({self.pool.fabric_cache.entries} warm)",
        ]
        if self.result_cache is not None:
            c = self.result_cache
            lines.append(
                f"result cache: {c.hits} hits / {c.misses} misses, "
                f"{c.stores} stores, {c.evictions} evictions")
        return "\n".join(lines)


class StatsRecorder:
    """The mutable counters behind :class:`ServiceStats` snapshots.

    Every series lives in a :class:`MetricsRegistry` (``service_*``
    names); the recorder's lock serializes the compound updates
    (admit = request count + queue depth + peak) so a snapshot is
    always internally consistent.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._lock = threading.Lock()
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._requests = self.metrics.counter("service_requests_total")
        self._completed = self.metrics.counter("service_completed_total")
        self._errors = self.metrics.counter("service_errors_total")
        self._rejected = self.metrics.counter("service_rejected_total")
        self._cache_hits = self.metrics.counter("service_cache_hits_total")
        self._cache_misses = self.metrics.counter(
            "service_cache_misses_total")
        self._deduped = self.metrics.counter("service_deduped_total")
        self._dispatches = self.metrics.counter("service_dispatches_total")
        self._dispatched_requests = self.metrics.counter(
            "service_dispatched_requests_total")
        self._queue_depth = self.metrics.gauge("service_queue_depth")
        self._peak_queue_depth = self.metrics.gauge(
            "service_peak_queue_depth")
        self._service_time = self.metrics.histogram("service_time_seconds")

    # -- stage events ---------------------------------------------------------

    def admitted(self) -> None:
        with self._lock:
            self._requests.inc()
            self._queue_depth.inc()
            self._peak_queue_depth.set(max(self._peak_queue_depth.value,
                                           self._queue_depth.value))

    def rejected(self) -> None:
        with self._lock:
            self._rejected.inc()

    def cache_hit(self) -> None:
        with self._lock:
            self._cache_hits.inc()

    def cache_miss(self) -> None:
        with self._lock:
            self._cache_misses.inc()

    def deduped(self) -> None:
        with self._lock:
            self._deduped.inc()

    def dispatched(self) -> None:
        with self._lock:
            self._dispatches.inc()
            self._dispatched_requests.inc()

    def finished(self, ok: bool, service_seconds: float) -> None:
        with self._lock:
            if ok:
                self._completed.inc()
            else:
                self._errors.inc()
            self._queue_depth.dec()
            self._service_time.observe(service_seconds)

    def settled_without_service(self) -> None:
        """Release queue depth for a request that never dispatched
        (deduped onto a twin, or answered by the cache tier)."""
        with self._lock:
            self._queue_depth.dec()

    # -- reads ----------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return self._queue_depth.value

    def mean_service_seconds(self) -> float:
        with self._lock:
            return self._service_time.mean_seconds

    def snapshot(
        self,
        pool: PoolStats | None = None,
        result_cache: CacheStats | None = None,
    ) -> ServiceStats:
        """Freeze the registry series (and optional pool/cache context)."""
        with self._lock:
            return ServiceStats(
                requests=self._requests.value,
                completed=self._completed.value,
                errors=self._errors.value,
                rejected=self._rejected.value,
                cache_hits=self._cache_hits.value,
                cache_misses=self._cache_misses.value,
                deduped=self._deduped.value,
                dispatches=self._dispatches.value,
                dispatched_requests=self._dispatched_requests.value,
                queue_depth=self._queue_depth.value,
                peak_queue_depth=self._peak_queue_depth.value,
                service_time=self._service_time.to_dict(),
                pool=pool or PoolStats(),
                result_cache=result_cache,
            )
