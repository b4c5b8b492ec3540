"""The worker pool: the one process executor.

:class:`WorkerPool` runs every multi-process execution in the repo.
:class:`~repro.parallel.runner.ParallelRunner` (sharded runs and
sweeps) keeps one warm for its lifetime, or uses one it was given; the
serving :class:`~repro.serving.service.Service` keeps one for its
lifetime.
Workers are long-lived processes that receive pickled
:class:`~repro.api.spec.ScenarioSpec` tasks over private queues, keep
their per-process caches warm across tasks (the
:mod:`~repro.api.fabric_cache` mapped-fabric store, the workload
adapters' model caches), and send results back over private outboxes.

Determinism is inherited, not re-proven: a ``"window"`` task runs
:func:`~repro.parallel.sharding.run_shard`, a ``"spec"`` task runs
``Engine.from_spec(spec).run()``, and sharded runs fold through
:func:`~repro.parallel.sharding.merge_shard_results` -- so
``workers=N`` stays bit-identical to ``workers=1``, fidelity and
accuracy summaries included.

Robustness contract:

* **health**: a collector thread blocks on every worker's outbox and
  process sentinel, so a result or a worker's death wakes it at once;
  :meth:`WorkerPool.ping` round-trips a token through every worker.
* **crash recovery**: a worker that dies mid-task is restarted and the
  task retried on the fresh worker (bit-identical, because tasks are
  pure functions of their specs); a task that keeps killing workers
  surfaces a typed :class:`WorkerCrashed` after ``max_attempts``.
* **graceful shutdown**: :meth:`WorkerPool.shutdown` drains in-flight
  work, sends each worker a shutdown sentinel, joins with a timeout and
  only then escalates to termination.

The ``inline`` mode runs tasks synchronously in-process with the same
task/merge plumbing and a process-local warm fabric cache -- the
deterministic single-CPU and unit-test configuration.
"""

from __future__ import annotations

import collections
import dataclasses
import multiprocessing
import pickle
import queue as queue_mod
import threading
import time
import uuid
from concurrent.futures import Future
from multiprocessing import connection
from typing import Any, Mapping, Sequence

from repro.api.engines import Engine
from repro.api.fabric_cache import (
    FabricCache,
    FabricCacheStats,
    activate_fabric_cache,
    active_fabric_cache,
    deactivate_fabric_cache,
)
from repro.api.result import RunResult
from repro.api.spec import ScenarioSpec
from repro.api.workloads import adapter_for
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, active_tracer, span, traced
from repro.parallel.sharding import merge_shard_results, plan_shards, \
    run_shard

__all__ = [
    "POOL_MODES",
    "PoolStats",
    "PoolTask",
    "ServingError",
    "WorkerCrashed",
    "WorkerPool",
]

#: Start methods, best first: ``fork`` shares the parent's loaded
#: modules (cheap startup); ``spawn`` is the portable fallback;
#: ``inline`` executes tasks serially in-process -- same plan, same
#: merge, no processes (useful for tests and debugging).
POOL_MODES = ("auto", "fork", "forkserver", "spawn", "inline")


class ServingError(RuntimeError):
    """Base class of the pool's and the serving layer's own failures."""


class WorkerCrashed(ServingError):
    """A task's worker process died and retries were exhausted.

    The pool restarts crashed workers and transparently retries their
    in-flight tasks on fresh ones (results are pure functions of the
    spec, so a retry is bit-identical); this surfaces only when a task
    keeps killing its workers -- which means the task itself, not the
    infrastructure, is fatal.

    Attributes:
        attempts: how many workers the task consumed.
    """

    def __init__(self, message: str, attempts: int) -> None:
        self.attempts = attempts
        super().__init__(message)


@dataclasses.dataclass(frozen=True)
class PoolStats:
    """One snapshot of a worker pool's lifetime accounting.

    Attributes:
        workers: configured worker slots.
        alive: worker processes currently alive (equals ``workers``
            for the inline pool).
        restarts: workers restarted after a crash.
        tasks_done: tasks completed successfully.
        tasks_failed: tasks that raised (the error went to the caller).
        tasks_retried: dispatch attempts repeated after a worker died.
        pending: tasks queued but not yet dispatched.
        running: tasks currently executing on a worker.
        busy_seconds: total worker-occupied execution time.
        fabric_cache: warm-fabric counters aggregated across workers.
    """

    workers: int = 0
    alive: int = 0
    restarts: int = 0
    tasks_done: int = 0
    tasks_failed: int = 0
    tasks_retried: int = 0
    pending: int = 0
    running: int = 0
    busy_seconds: float = 0.0
    fabric_cache: FabricCacheStats = dataclasses.field(
        default_factory=FabricCacheStats)

    def to_dict(self) -> dict[str, Any]:
        data = dataclasses.asdict(self)
        data["fabric_cache"] = self.fabric_cache.as_dict()
        return data


def _execute_task(kind: str, payload: Any) -> Any:
    """One task body -- identical in forked workers and inline mode.

    Task kinds:

    * ``"window"`` -- one batch window ``(spec, offset, count)``; the
      sharded-run unit (see :func:`~repro.parallel.sharding.run_shard`).
    * ``"spec"`` -- one whole spec; the spec-fan-out unit.
    """
    if kind == "window":
        return run_shard(payload)
    if kind == "spec":
        return Engine.from_spec(payload).run()
    raise ValueError(f"unknown task kind {kind!r}")


def _sendable_error(exc: BaseException) -> BaseException:
    """``exc`` if it survives pickling, else a faithful stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return ServingError(f"{type(exc).__name__}: {exc}")


def _worker_main(worker_id: int, inbox, outbox, warm_entries: int) -> None:
    """Worker process body: serve tasks until the shutdown sentinel.

    Each worker activates its own process-local
    :class:`~repro.api.fabric_cache.FabricCache` so mapped fabrics stay
    warm across the runs it serves, and piggybacks the cache-counter
    deltas on every completion so the parent can aggregate pool-wide
    warmth statistics.
    """
    cache = activate_fabric_cache(FabricCache(max_entries=warm_entries))
    reported = cache.stats()
    while True:
        message = inbox.get()
        if message[0] == "shutdown":
            outbox.put(("bye", worker_id))
            return
        if message[0] == "ping":
            outbox.put(("pong", worker_id, message[1]))
            continue
        _, dispatch_id, kind, payload, trace_on = message
        outbox.put(("started", worker_id, dispatch_id))
        started = time.perf_counter()
        # Traced dispatches execute under a fresh worker-local tracer;
        # its SpanRecords ride the "done" message home as they are (no
        # to_dict/from_dict round on either side) so the parent can
        # graft them under the dispatching span (Tracer.adopt).
        tracer = Tracer() if trace_on else None
        try:
            if tracer is not None:
                with traced(tracer):
                    result = _execute_task(kind, payload)
            else:
                result = _execute_task(kind, payload)
        except BaseException as exc:  # noqa: BLE001 -- forwarded whole
            outbox.put(("failed", worker_id, dispatch_id,
                        _sendable_error(exc),
                        time.perf_counter() - started))
            continue
        stats = cache.stats()
        delta = stats.delta(reported)
        reported = stats
        spans = [] if tracer is None else tracer.records()
        outbox.put(("done", worker_id, dispatch_id, result,
                    time.perf_counter() - started, delta, spans))


class PoolTask:
    """One submitted task: a future plus dispatch-progress events.

    Attributes:
        future: resolves to the task's result (or raises its error);
            a :class:`concurrent.futures.Future`, so asyncio callers
            can ``await asyncio.wrap_future(task.future)``.
        started: set the first time a worker reports the task began
            executing (used by robustness tests to kill a worker
            provably mid-run, and by health introspection).
    """

    def __init__(self, kind: str, payload: Any) -> None:
        self.kind = kind
        self.payload = payload
        self.future: Future = Future()
        self.started = threading.Event()
        self.attempts = 0
        # Trace linkage for worker-side spans: the submitter's open
        # span (adoption parent) and the parent-clock dispatch instant
        # (adoption offset); only meaningful while a tracer is active.
        self.trace_parent_id: int | None = None
        self.trace_offset = 0.0

    def result(self, timeout: float | None = None) -> Any:
        """Block for the task's result (raises what the task raised)."""
        return self.future.result(timeout)


class _WorkerSlot:
    """Parent-side record of one worker process.

    Each worker owns a private ``outbox`` as well as its inbox: a
    worker SIGKILLed mid-``put`` leaves that queue's write lock held
    forever, and with a shared outbox one crashed worker would wedge
    every survivor.  Private queues confine the corruption -- a restart
    replaces the dead worker's queues wholesale (dropping any stale
    half-written messages with them).
    """

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.process = None
        self.inbox = None
        self.outbox = None
        self.dispatch_id: str | None = None
        self.warm_entries_gauge = 0

    @property
    def busy(self) -> bool:
        return self.dispatch_id is not None

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class WorkerPool:
    """Long-lived warm workers serving spec and window tasks.

    Args:
        workers: worker process count (>= 1).
        mode: start method -- "auto" (fork where available, else
            spawn), "fork", "forkserver", "spawn", or "inline"
            (synchronous in-process execution with the same task
            plumbing; no processes, nothing to crash).
        warm_entries: per-worker warm-fabric LRU capacity.
        max_attempts: workers a task may consume before its future
            fails with :class:`WorkerCrashed`.
    """

    def __init__(
        self,
        workers: int = 2,
        mode: str = "auto",
        warm_entries: int = 8,
        max_attempts: int = 3,
    ) -> None:
        if not isinstance(workers, int) or isinstance(workers, bool) \
                or workers < 1:
            raise ValueError("workers must be a positive integer")
        if mode not in POOL_MODES:
            raise ValueError(
                f"mode must be one of {POOL_MODES}, got {mode!r}")
        if not isinstance(max_attempts, int) \
                or isinstance(max_attempts, bool) or max_attempts < 1:
            raise ValueError("max_attempts must be a positive integer")
        self.workers = workers
        self.mode = mode
        self.warm_entries = warm_entries
        self.max_attempts = max_attempts
        self._lock = threading.RLock()
        self._answered = threading.Condition(self._lock)
        self._slots: list[_WorkerSlot] = []
        self._pending: collections.deque[PoolTask] = collections.deque()
        self._dispatches: dict[str, PoolTask] = {}
        self._pongs: dict[str, set[int]] = {}
        self._ctx = None
        self._collector: threading.Thread | None = None
        self._running = False
        self._closed = False
        # Lifetime counters: ``pool_*`` series in the unified metrics
        # registry (:mod:`repro.obs.metrics`); compound updates still
        # happen under _lock, :meth:`stats` is the dataclass adapter.
        self.metrics = MetricsRegistry()
        self._restarts = self.metrics.counter("pool_restarts_total")
        self._tasks_done = self.metrics.counter("pool_tasks_done_total")
        self._tasks_failed = self.metrics.counter(
            "pool_tasks_failed_total")
        self._tasks_retried = self.metrics.counter(
            "pool_tasks_retried_total")
        self._busy_seconds = self.metrics.counter(
            "pool_busy_seconds_total")
        self._pending_gauge = self.metrics.gauge("pool_pending_tasks")
        self._running_gauge = self.metrics.gauge("pool_running_tasks")
        self._alive_gauge = self.metrics.gauge("pool_workers_alive")
        self._fabric_totals = FabricCacheStats()
        # Inline mode: the cache shared by in-process execution, plus
        # whatever cache was active before start() so shutdown can
        # restore it.
        self._inline_cache: FabricCache | None = None
        self._prior_cache: FabricCache | None = None

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "WorkerPool":
        """Fork the workers (or install the inline cache) once."""
        with self._lock:
            if self._running:
                return self
            if self._closed:
                raise ServingError("pool already shut down")
            self._running = True
            if self.mode == "inline":
                self._prior_cache = active_fabric_cache()
                self._inline_cache = activate_fabric_cache(
                    FabricCache(max_entries=self.warm_entries))
                return self
            self._ctx = multiprocessing.get_context(self._method())
            self._slots = [_WorkerSlot(i) for i in range(self.workers)]
            for slot in self._slots:
                self._start_worker(slot)
        # The collector starts *after* the initial forks so no worker
        # ever snapshots a running parent thread.
        self._collector = threading.Thread(
            target=self._collect_loop, name="repro-pool-collector",
            daemon=True)
        self._collector.start()
        return self

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self, timeout: float = 10.0) -> None:
        """Drain in-flight work, stop the workers, join everything.

        Safe to call twice.  Pending tasks complete first (graceful);
        workers that ignore the sentinel past ``timeout`` are
        terminated.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            outstanding = list(self._dispatches.values()) \
                + list(self._pending)
        deadline = time.monotonic() + timeout
        for task in outstanding:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                task.future.result(remaining)
            except Exception:
                pass  # the submitter owns task errors; drain regardless
        if self.mode == "inline":
            with self._lock:
                self._running = False
                if self._inline_cache is not None:
                    if self._prior_cache is not None:
                        activate_fabric_cache(self._prior_cache)
                    else:
                        deactivate_fabric_cache()
            return
        with self._lock:
            self._running = False
            slots = list(self._slots)
            for slot in slots:
                if slot.alive():
                    try:
                        slot.inbox.put(("shutdown",))
                    except (OSError, ValueError):
                        pass
        if self._collector is not None:
            self._collector.join(timeout=timeout)
        for slot in slots:
            if slot.process is None:
                continue
            slot.process.join(
                timeout=max(0.0, deadline - time.monotonic()) or 0.1)
            if slot.process.is_alive():
                slot.process.terminate()
                slot.process.join(timeout=1.0)
        # Fail anything still unresolved (a worker that had to be
        # terminated mid-task can leave its future hanging).
        with self._lock:
            for task in list(self._dispatches.values()) \
                    + list(self._pending):
                if not task.future.done():
                    task.future.set_exception(
                        ServingError("pool shut down"))
            self._dispatches.clear()
            self._pending.clear()

    # -- submission ------------------------------------------------------------

    def submit(self, kind: str, payload: Any) -> PoolTask:
        """Queue one task; returns its :class:`PoolTask` handle."""
        if kind not in ("window", "spec"):
            raise ValueError(f"unknown task kind {kind!r}")
        task = PoolTask(kind, payload)
        tracer = active_tracer()
        if tracer is not None:
            # Worker-side spans adopt under the submitter's open span.
            task.trace_parent_id = tracer.current_span_id
        with self._lock:
            if not self._running or self._closed:
                raise ServingError("pool is not running")
            if self.mode == "inline":
                self._run_inline(task)
                return task
            self._pending.append(task)
            self._dispatch_pending()
        return task

    def _run_inline(self, task: PoolTask) -> None:
        task.started.set()
        task.attempts = 1
        cache = self._inline_cache
        before = cache.stats()
        started = time.perf_counter()
        try:
            result = _execute_task(task.kind, task.payload)
        except BaseException as exc:  # noqa: BLE001 -- future carries it
            self._busy_seconds.inc(time.perf_counter() - started)
            self._tasks_failed.inc()
            task.future.set_exception(exc)
            return
        self._busy_seconds.inc(time.perf_counter() - started)
        self._tasks_done.inc()
        self._fabric_totals = self._fabric_totals.merged_with(
            cache.stats().delta(before))
        task.future.set_result(result)

    # -- high-level blocking API ----------------------------------------------

    def run(self, spec: ScenarioSpec | Mapping[str, Any]) -> RunResult:
        """Execute one scenario, sharded across the workers.

        Same shard plan and merge as in-process sharding; an engine
        that cannot shard (or a one-item batch) runs as one task.
        """
        if not isinstance(spec, ScenarioSpec):
            spec = ScenarioSpec.from_dict(spec)
        engine = Engine.from_spec(spec)
        shards = plan_shards(spec.batch, self.workers)
        if not engine.shardable or len(shards) < 2:
            return self.submit("spec", spec).result()
        # Validate params in the caller so a typoed knob fails with the
        # usual error, not wrapped in a worker traceback.
        engine.check_params(adapter_for(spec, engine.name))
        started = time.perf_counter()
        with span("shards.dispatch", shards=len(shards),
                  workers=self.workers, pool=f"warm-{self._method()}"):
            tasks = [self.submit("window", (spec, offset, count))
                     for offset, count in shards]
            shard_results = [task.result() for task in tasks]
        elapsed = time.perf_counter() - started
        return merge_shard_results(
            spec, engine, shard_results,
            parallel_provenance={
                "workers": self.workers,
                "pool": f"warm-{self._method()}",
                "shards": [
                    {"offset": s.offset, "count": s.count,
                     "wall_seconds": s.wall_seconds}
                    for s in shard_results
                ],
            },
            wall_seconds=elapsed,
        )

    def run_many(
        self, specs: Sequence[ScenarioSpec | Mapping[str, Any]]
    ) -> list[RunResult]:
        """Fan whole specs across the workers (input order kept)."""
        resolved = [
            s if isinstance(s, ScenarioSpec) else ScenarioSpec.from_dict(s)
            for s in specs
        ]
        tasks = [self.submit("spec", spec) for spec in resolved]
        return [task.result() for task in tasks]

    # -- health ----------------------------------------------------------------

    def ping(self, timeout: float = 5.0) -> dict[int, bool]:
        """Round-trip a token through every worker.

        Returns:
            ``{worker_id: responded}``.  A busy worker answers after
            its current task, so a short timeout distinguishes idle
            health from liveness under load.  A worker found dead is
            restarted first, and one that dies with the token queued
            hands it to its replacement, so a restarted worker counts
            as healthy.  Inline pools are always healthy.
        """
        if self.mode == "inline":
            return {i: True for i in range(self.workers)}
        token = uuid.uuid4().hex
        with self._lock:
            if not self._running:
                raise ServingError("pool is not running")
            self._reap_dead()
            self._pongs[token] = set()
            slots = list(self._slots)
            for slot in slots:
                slot.inbox.put(("ping", token))
            self._answered.wait_for(
                lambda: len(self._pongs[token]) == len(slots), timeout)
            responded = self._pongs.pop(token)
        return {slot.worker_id: slot.worker_id in responded
                for slot in slots}

    def stats(self) -> PoolStats:
        """A consistent snapshot of pool lifetime counters."""
        with self._lock:
            if self.mode == "inline":
                alive = self.workers if self._running else 0
                fabric = self._fabric_totals
                if self._inline_cache is not None:
                    fabric = FabricCacheStats(
                        hits=fabric.hits, misses=fabric.misses,
                        stores=fabric.stores,
                        evictions=fabric.evictions,
                        entries=self._inline_cache.stats().entries,
                    )
                running = 0
            else:
                alive = sum(1 for s in self._slots if s.alive())
                warm_entries = sum(
                    s.warm_entries_gauge for s in self._slots)
                totals = self._fabric_totals
                fabric = FabricCacheStats(
                    hits=totals.hits, misses=totals.misses,
                    stores=totals.stores, evictions=totals.evictions,
                    entries=warm_entries,
                )
                running = sum(1 for s in self._slots if s.busy)
            # Instantaneous gauges refresh on snapshot (the registry's
            # exposition reflects the latest stats() call).
            self._pending_gauge.set(len(self._pending))
            self._running_gauge.set(running)
            self._alive_gauge.set(alive)
            return PoolStats(
                workers=self.workers,
                alive=alive,
                restarts=self._restarts.value,
                tasks_done=self._tasks_done.value,
                tasks_failed=self._tasks_failed.value,
                tasks_retried=self._tasks_retried.value,
                pending=len(self._pending),
                running=running,
                busy_seconds=self._busy_seconds.value,
                fabric_cache=fabric,
            )

    # -- internals -------------------------------------------------------------

    def _method(self) -> str:
        if self.mode != "auto":
            return self.mode
        available = multiprocessing.get_all_start_methods()
        return "fork" if "fork" in available else "spawn"

    def _start_worker(self, slot: _WorkerSlot) -> None:
        """(Re)fork one worker into ``slot`` (caller holds the lock).

        Fresh queues every time: a crashed predecessor may have died
        holding its queues' locks, so nothing of them is reused.  Ping
        tokens the predecessor left unanswered are queued again, so an
        open :meth:`ping` hears from the replacement.
        """
        slot.inbox = self._ctx.Queue()
        slot.outbox = self._ctx.Queue()
        slot.dispatch_id = None
        slot.warm_entries_gauge = 0
        slot.process = self._ctx.Process(
            target=_worker_main,
            args=(slot.worker_id, slot.inbox, slot.outbox,
                  self.warm_entries),
            daemon=True,
            name=f"repro-pool-worker-{slot.worker_id}",
        )
        slot.process.start()
        for token, responded in self._pongs.items():
            if slot.worker_id not in responded:
                slot.inbox.put(("ping", token))

    def _dispatch_pending(self) -> None:
        """Hand queued tasks to idle live workers (caller holds lock)."""
        for slot in self._slots:
            if not self._pending:
                return
            if slot.busy or not slot.alive():
                continue
            task = self._pending.popleft()
            dispatch_id = uuid.uuid4().hex
            task.attempts += 1
            self._dispatches[dispatch_id] = task
            slot.dispatch_id = dispatch_id
            tracer = active_tracer()
            if tracer is not None:
                task.trace_offset = tracer.now()
            slot.inbox.put(("task", dispatch_id, task.kind,
                            task.payload, tracer is not None))

    def _collect_loop(self) -> None:
        """Collector thread: results, health, restarts, scheduling.

        Blocks in :func:`multiprocessing.connection.wait` on every
        worker's outbox reader and process sentinel.  A message wakes
        it to drain that outbox; a worker's death wakes it to reap the
        worker, restart it and retry its task.  After shutdown it
        watches only the live workers and returns once no task is left
        or no worker is left to finish one.
        """
        while True:
            with self._lock:
                watched = self._slots
                if not self._running:
                    watched = [s for s in self._slots if s.alive()]
                    if not (watched and (self._dispatches
                                         or self._pending)):
                        return
                # The queue's reader end is what a worker's put makes
                # readable (the same wait concurrent.futures uses).
                outboxes = {s.outbox._reader: s.outbox
                            for s in self._slots}
                sentinels = {s.process.sentinel for s in watched}
            ready = connection.wait([*outboxes, *sentinels])
            for handle in ready:
                if handle in outboxes:
                    self._drain(outboxes[handle])
            if not sentinels.isdisjoint(ready):
                self._reap_dead()

    def _drain(self, outbox) -> None:
        """Handle every message already waiting in ``outbox``."""
        while True:
            try:
                message = outbox.get_nowait()
            except (queue_mod.Empty, OSError, ValueError):
                return
            self._handle_message(message)

    def _handle_message(self, message) -> None:
        kind = message[0]
        if kind == "started":
            _, worker_id, dispatch_id = message
            with self._lock:
                task = self._dispatches.get(dispatch_id)
            if task is not None:
                task.started.set()
        elif kind == "pong":
            _, worker_id, token = message
            with self._lock:
                if token in self._pongs:
                    self._pongs[token].add(worker_id)
                    self._answered.notify_all()
        elif kind in ("done", "failed"):
            self._on_completion(message)

    def _on_completion(self, message) -> None:
        kind, worker_id, dispatch_id = message[:3]
        with self._lock:
            task = self._dispatches.pop(dispatch_id, None)
            slot = self._slots[worker_id]
            if slot.dispatch_id == dispatch_id:
                slot.dispatch_id = None
            if kind == "done":
                _, _, _, result, busy, delta, spans = message
                self._busy_seconds.inc(busy)
                self._fabric_totals = \
                    self._fabric_totals.merged_with(delta)
                slot.warm_entries_gauge = delta.entries
                tracer = active_tracer()
                if spans and tracer is not None:
                    tracer.adopt(
                        spans,
                        parent_id=(task.trace_parent_id
                                   if task is not None else None),
                        offset_seconds=(task.trace_offset
                                        if task is not None else 0.0),
                    )
                if task is not None and not task.future.done():
                    self._tasks_done.inc()
                    task.future.set_result(result)
            else:
                _, _, _, error, busy = message
                self._busy_seconds.inc(busy)
                if task is not None and not task.future.done():
                    self._tasks_failed.inc()
                    task.future.set_exception(error)
            self._dispatch_pending()

    def _reap_dead(self) -> None:
        """Restart dead workers; retry (or fail) their in-flight tasks."""
        with self._lock:
            if not self._running:
                return
            for slot in self._slots:
                if slot.alive():
                    continue
                # Drain the final messages the worker managed to send
                # before dying: a task whose "done" landed just before
                # the crash completes normally instead of re-running.
                if slot.outbox is not None:
                    self._drain(slot.outbox)
                task = self._dispatches.pop(slot.dispatch_id, None) \
                    if slot.dispatch_id else None
                slot.dispatch_id = None
                self._restarts.inc()
                self._start_worker(slot)
                if task is None or task.future.done():
                    continue
                if task.attempts >= self.max_attempts:
                    self._tasks_failed.inc()
                    task.future.set_exception(WorkerCrashed(
                        f"task killed {task.attempts} workers "
                        f"(kind={task.kind!r}); giving up",
                        attempts=task.attempts,
                    ))
                else:
                    self._tasks_retried.inc()
                    # Head of the queue: a retried task was admitted
                    # before everything still pending.
                    self._pending.appendleft(task)
            self._dispatch_pending()
