"""Serving: async front-end, cache tier, backpressure, metrics.

The production-traffic layer of the reproduction.  Requests are served
by a long-lived :class:`~repro.parallel.pool.WorkerPool` -- worker
processes forked once, mapped fabrics kept warm across runs keyed by
:meth:`~repro.api.spec.ScenarioSpec.structure_hash`, health checks,
crash restarts with bit-identical retries, graceful shutdown -- the
same executor :class:`~repro.parallel.runner.ParallelRunner` runs on.
This package adds the request path in front of it:

* :class:`~repro.serving.service.Service` -- the asyncio front-end:
  in-flight dedup, :class:`~repro.parallel.cache.ResultCache` hits
  answered before a worker is touched, bounded-queue backpressure with
  typed :class:`~repro.serving.errors.ServiceOverloaded` rejection, and
  one ``"spec"`` pool task per admitted request.
* :class:`~repro.serving.stats.ServiceStats` -- per-stage counters and
  a latency histogram, snapshotted for ``repro serve --stats-json``.

The determinism contract is inherited, not renegotiated: workers run
the plain ``Engine.from_spec(spec).run()`` body, so every served result
is bit-identical to its single-process counterpart.
"""

from repro.parallel.pool import PoolTask, WorkerPool
from repro.serving.errors import (
    ServiceOverloaded,
    ServingError,
    WorkerCrashed,
)
from repro.serving.service import Service, serve_all
from repro.serving.stats import (
    LatencyHistogram,
    PoolStats,
    ServiceStats,
    StatsRecorder,
)

__all__ = [
    "LatencyHistogram",
    "PoolStats",
    "PoolTask",
    "Service",
    "ServiceOverloaded",
    "ServiceStats",
    "ServingError",
    "StatsRecorder",
    "WorkerCrashed",
    "WorkerPool",
    "serve_all",
]
