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
fan-out until the runner is dropped.  An ``"inline"`` pool is entered
per call instead, so it never leaves its fabric cache installed in the
caller.  Every other call runs in-process, so ``workers=1`` never forks.

A :class:`~repro.parallel.cache.ResultCache` can be attached; cache
lookups happen before any task is submitted, so a warm cache serves
repeated runs (figure regenerations, sweep re-runs) without compute.
"""

from __future__ import annotations

import contextlib
import os
import threading
import weakref
from typing import Any, Mapping, Sequence

from repro.api.engines import Engine
from repro.api.result import RunResult
from repro.api.spec import ScenarioSpec
from repro.parallel.cache import ResultCache
from repro.parallel.pool import POOL_MODES, WorkerPool
from repro.parallel.sharding import plan_shards

__all__ = ["ParallelRunner"]


class ParallelRunner:
    """Run scenarios across worker processes, with optional caching.

    Args:
        workers: worker process count (1 = plain in-process execution).
        cache: a :class:`ResultCache`, a cache directory path, or None.
        pool: start method of the runner's pool -- "auto" (fork where
            available, else spawn), "fork", "forkserver", "spawn", or
            "inline" (serial in-process execution of the identical
            shard plan, entered per call).
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
        workers = self.workers if self.executor is None \
            else self.executor.workers
        shards = plan_shards(spec.batch, workers)
        if engine.shardable and len(shards) > 1:
            with self._pool_for(len(shards)) as pool:
                result = pool.run(spec)
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
                                 or self.workers > 1):
            with self._pool_for(len(missing)) as pool:
                fresh = pool.run_many(missing)
        else:
            fresh = [Engine.from_spec(spec).run() for spec in missing]
        for i, result in zip(misses, fresh):
            if self.cache is not None:
                self.cache.store(result)
            results[i] = result
        return results  # type: ignore[return-value]

    def _pool_for(self, tasks: int):
        """The attached executor, the kept pool, or an inline pool
        entered for one call."""
        if self.executor is not None:
            return contextlib.nullcontext(self.executor)
        if self.pool == "inline":
            return WorkerPool(min(self.workers, tasks), mode="inline")
        with self._pool_lock:
            if self._pool is None or self._pool_pid != os.getpid():
                pool = WorkerPool(self.workers, mode=self.pool).start()
                self._pool, self._pool_pid = pool, os.getpid()
                weakref.finalize(self, _stop_pool, pool, os.getpid())
            return contextlib.nullcontext(self._pool)


def _stop_pool(pool: WorkerPool, pid: int) -> None:
    """Shut ``pool`` down, but only in the process that started it."""
    if os.getpid() == pid:
        pool.shutdown()
