"""Typed failures of the serving subsystem.

Callers of :meth:`~repro.serving.service.Service.submit` see exactly
three failure families: their own bad input (the usual
:class:`~repro.api.workloads.ScenarioError` /
:class:`~repro.api.spec.SpecError` raised by the engine facade),
overload (:class:`ServiceOverloaded` -- retryable, carries a suggested
backoff), and infrastructure loss (:class:`WorkerCrashed` -- a task's
worker died repeatedly even after restarts).  Everything else is a bug.

:class:`ServingError` and :class:`WorkerCrashed` belong to the worker
pool (:mod:`repro.parallel.pool`) and are re-exported here.
"""

from __future__ import annotations

from repro.parallel.pool import ServingError, WorkerCrashed

__all__ = ["ServiceOverloaded", "ServingError", "WorkerCrashed"]


class ServiceOverloaded(ServingError):
    """The bounded request queue is full; retry after a backoff.

    Raised by :meth:`~repro.serving.service.Service.submit` *before*
    any work is queued, so a rejected request costs the caller nothing
    but this exception.  Load-shedding at admission keeps queue wait
    bounded for the requests already admitted.

    Attributes:
        queue_depth: admitted-but-incomplete requests at rejection time.
        limit: the configured queue bound that was exceeded.
        retry_after_seconds: suggested client backoff, estimated from
            the current depth and recent service rate (never zero, so
            naive ``sleep(retry_after)`` loops cannot spin).
    """

    def __init__(self, queue_depth: int, limit: int,
                 retry_after_seconds: float) -> None:
        self.queue_depth = queue_depth
        self.limit = limit
        self.retry_after_seconds = retry_after_seconds
        super().__init__(
            f"service overloaded: {queue_depth} requests in flight "
            f"(limit {limit}); retry after "
            f"{retry_after_seconds:.3g} s"
        )
