"""Horizontal scale-out for the unified API: shards, sweeps, caching.

The paper's computation-in-memory pitch is throughput at scale; PR 1
added batching (amortize control over B items in one process) and the
facade made every run a pure function of its
:class:`~repro.api.spec.ScenarioSpec`.  This package adds the third
layer: scale-out *across processes* --

* :class:`WorkerPool` -- the one process executor: long-lived workers
  fed spec and window tasks, with crash restarts, bit-identical
  retries and graceful shutdown (the serving layer runs on it too);
* :class:`ParallelRunner` -- split one batched spec into per-worker
  windows, execute them on a pool, merge the shard results
  bit-identically to the single-process run;
* :class:`SweepRunner` / :func:`expand_grid` -- fan a parameter grid of
  whole specs across a pool (the grid-of-configurations evaluation
  style);
* :class:`ResultCache` -- a content-addressed on-disk cache keyed by
  :meth:`ScenarioSpec.canonical_hash`, so repeated runs and figure
  regenerations replay instead of recompute.

All of it is reachable from the CLI: ``python -m repro run --workers N
--cache DIR``, ``python -m repro sweep``, ``python -m repro bench
--workers N``.
"""

from repro.parallel.cache import CacheStats, PruneStats, ResultCache
from repro.parallel.pool import PoolTask, WorkerPool
from repro.parallel.runner import ParallelRunner
from repro.parallel.sharding import (
    ShardResult,
    merge_shard_results,
    plan_shards,
    run_shard,
)
from repro.parallel.sweep import SweepRunner, expand_grid

__all__ = [
    "CacheStats",
    "ParallelRunner",
    "PoolTask",
    "PruneStats",
    "ResultCache",
    "ShardResult",
    "SweepRunner",
    "WorkerPool",
    "expand_grid",
    "merge_shard_results",
    "plan_shards",
    "run_shard",
]
