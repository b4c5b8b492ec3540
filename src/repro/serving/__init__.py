"""Serving: async front-end, cache tier, backpressure, metrics.

The production-traffic layer of the reproduction.  Requests are served
by a long-lived :class:`~repro.parallel.pool.WorkerPool` -- worker
processes forked once, health checks, crash restarts with bit-identical
retries, graceful shutdown -- the same executor
:class:`~repro.parallel.runner.ParallelRunner` runs on.
This package adds the request path in front of it:

* :class:`~repro.serving.service.Service` -- the asyncio front-end:
  in-flight dedup, :class:`~repro.parallel.cache.ResultCache` hits
  answered before a worker is touched, bounded-queue backpressure with
  typed :class:`~repro.serving.errors.ServiceOverloaded` rejection, and
  one ``"spec"`` pool task per admitted request.
* :meth:`Service.metrics <repro.serving.service.Service.metrics>` --
  per-stage ``service_*`` counters and a latency histogram, merged with
  the pool's ``pool_*`` and the cache's ``result_cache_*`` series into
  one registry snapshot that callers read by series name
  (``repro serve --metrics-json``);
  :func:`~repro.serving.service.render_metrics` prints its text
  summary.

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
from repro.serving.service import Service, render_metrics, serve_all

__all__ = [
    "PoolTask",
    "Service",
    "ServiceOverloaded",
    "ServingError",
    "WorkerCrashed",
    "WorkerPool",
    "render_metrics",
    "serve_all",
]
