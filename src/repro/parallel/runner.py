"""The sharded multi-process runner over the unified API.

:class:`ParallelRunner` horizontally scales scenarios on a
:class:`~repro.parallel.pool.WorkerPool`.  :meth:`~ParallelRunner.run`
splits one batched spec into per-worker windows
(:func:`~repro.parallel.sharding.plan_shards`) and merges the window
results bit-identically to the single-process run
(:func:`~repro.parallel.sharding.merge_shard_results`);
:meth:`~ParallelRunner.run_many` fans whole specs across the workers.

A call that has work to fan out runs on the pool passed as
``executor=``, or on the runner's own pool, kept warm from its first
fan-out until the runner is dropped.  The own pool is never wider than
the CPUs this process may run on (:func:`~repro.bench.available_cpus`):
``workers`` is an upper bound, and a runner left one process wide --
``workers=1``, or any ``workers`` on one CPU -- runs every call
in-process and never forks.

A :class:`~repro.parallel.cache.ResultCache` can be attached; cache
lookups happen before any task is submitted, so a warm cache serves
repeated runs (figure regenerations, sweep re-runs) without compute.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Any, Mapping, Sequence

from repro.api.engines import Engine
from repro.api.result import RunResult
from repro.api.spec import ScenarioSpec
from repro.bench import available_cpus
from repro.parallel.cache import ResultCache
from repro.parallel.pool import POOL_MODES, WorkerPool
from repro.parallel.sharding import plan_shards

__all__ = ["ParallelRunner"]


class ParallelRunner:
    """Run scenarios across worker processes, with optional caching.

    Args:
        workers: the most worker processes to fan out to.  The runner's
            own process pool starts ``min(workers, available_cpus())``
            of them, and at one it runs in-process: more processes than
            CPUs only time-slice the same work.  An ``"inline"`` pool
            plans ``workers`` windows whatever the CPU count.
        cache: a :class:`ResultCache`, a cache directory path, or None.
        pool: start method of the runner's pool -- "auto" (fork where
            available, else spawn), "fork", "forkserver", "spawn", or
            "inline" (serial in-process execution of the identical
            shard plan).
        executor: an optional started
            :class:`~repro.parallel.pool.WorkerPool` to run on instead
            of the runner's own pool: cache handling stays here,
            execution goes to its warm workers (same shard plan, same
            merge, identical results).  ``workers``/``pool`` are ignored
            while an executor is attached.

    The runner's own pool starts on the first call that fans out and
    serves every later call, so a sweep loop pays for one pool start,
    not one per call.  It stops when the runner is dropped or at
    interpreter exit, and only in the process that started it: a call
    made in an ``os.fork`` child starts the child's own pool instead of
    writing into the parent's worker queues.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: ResultCache | str | None = None,
        pool: str = "auto",
        executor: WorkerPool | None = None,
    ) -> None:
        if not isinstance(workers, int) or isinstance(workers, bool) \
                or workers < 1:
            raise ValueError("workers must be a positive integer")
        if pool not in POOL_MODES:
            raise ValueError(
                f"pool must be one of {POOL_MODES}, got {pool!r}")
        if executor is not None and not isinstance(executor, WorkerPool):
            raise ValueError(
                f"executor must be a started WorkerPool, got {executor!r}")
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.workers = workers
        self.cache = cache
        self.pool = pool
        self.executor = executor
        self._pool: WorkerPool | None = None
        self._pool_pid: int | None = None
        self._pool_lock = threading.Lock()

    # -- execution ------------------------------------------------------------

    def run(self, spec: ScenarioSpec | Mapping[str, Any]) -> RunResult:
        """Execute one scenario, sharded across the workers.

        Cache hits return immediately; misses run (sharded when the
        engine supports it and the plan has several windows) and are
        stored.
        """
        if not isinstance(spec, ScenarioSpec):
            spec = ScenarioSpec.from_dict(spec)
        if self.cache is not None:
            cached = self.cache.load(spec)
            if cached is not None:
                return cached
        engine = Engine.from_spec(spec)
        shards = plan_shards(spec.batch, self._width())
        if engine.shardable and len(shards) > 1:
            result = self._worker_pool().run(spec)
        else:
            result = engine.run()
        if self.cache is not None:
            self.cache.store(result)
        return result

    def run_many(
        self, specs: Sequence[ScenarioSpec | Mapping[str, Any]]
    ) -> list[RunResult]:
        """Execute many specs, fanning whole specs across the workers.

        The coarse-grained counterpart of :meth:`run`: each spec is one
        pool task (no per-spec sharding), which is the right split for
        sweeps of many small scenarios.  Results come back in input
        order; cached specs are served without occupying a worker.
        """
        resolved = [
            s if isinstance(s, ScenarioSpec) else ScenarioSpec.from_dict(s)
            for s in specs
        ]
        results: list[RunResult | None] = [None] * len(resolved)
        misses: list[int] = []
        for i, spec in enumerate(resolved):
            cached = self.cache.load(spec) if self.cache is not None \
                else None
            if cached is not None:
                results[i] = cached
            else:
                misses.append(i)
        missing = [resolved[i] for i in misses]
        if len(missing) > 1 and (self.executor is not None
                                 or self._width() > 1):
            fresh = self._worker_pool().run_many(missing)
        else:
            fresh = [Engine.from_spec(spec).run() for spec in missing]
        for i, result in zip(misses, fresh):
            if self.cache is not None:
                self.cache.store(result)
            results[i] = result
        return results  # type: ignore[return-value]

    def _width(self) -> int:
        """Workers a call fans out to: an attached executor's or an
        inline pool's own count, else ``workers`` capped at the CPUs."""
        if self.executor is not None:
            return self.executor.workers
        if self.pool == "inline":
            return self.workers
        return min(self.workers, available_cpus())

    def _worker_pool(self) -> WorkerPool:
        """The attached executor, or the runner's kept pool."""
        if self.executor is not None:
            return self.executor
        with self._pool_lock:
            if self._pool is None or self._pool_pid != os.getpid():
                pool = WorkerPool(self._width(), mode=self.pool).start()
                self._pool, self._pool_pid = pool, os.getpid()
                weakref.finalize(self, _stop_pool, pool, os.getpid())
            return self._pool


def _stop_pool(pool: WorkerPool, pid: int) -> None:
    """Shut ``pool`` down, but only in the process that started it."""
    if os.getpid() == pid:
        pool.shutdown()
