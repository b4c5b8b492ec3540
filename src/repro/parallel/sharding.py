"""Batch shards: the plan, the worker body, and the merge.

A batched :class:`~repro.api.spec.ScenarioSpec` is split into contiguous
``(offset, count)`` windows (:func:`plan_shards`), each window executes
through the engine's ``execute_window`` shard hook (:func:`run_shard`),
and the window results fold back into one run
(:func:`merge_shard_results`) --

* per-item costs concatenate in original batch order;
* the whole-run :class:`~repro.api.result.CostSummary` is re-aggregated
  by the engine's own ``aggregate_cost`` fold over that concatenation
  (same float-addition order as ``workers=1``, so totals are
  bit-identical, not merely close);
* outputs merge through the workload adapter's ``merge_shard_outputs``;
* provenance records the shard plan and per-shard wall times.

The plan is a pure function of ``(batch, workers)`` and every adapter
derives item ``i``'s data from ``(spec.seed, i)`` alone (see
:mod:`repro.api.workloads`), so a window generates exactly the slice of
the batch it covers.  The suite in ``tests/parallel/test_determinism.py``
pins ``workers=1 == workers=N`` exactly, for every shardable engine.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Mapping, Sequence

import repro
from repro.api.engines import Engine
from repro.api.result import (
    AccuracySummary,
    CostSummary,
    FidelitySummary,
    RunResult,
)
from repro.api.spec import ScenarioSpec
from repro.api.workloads import adapter_for
from repro.obs.trace import active_tracer, span

__all__ = ["ShardResult", "merge_shard_results", "plan_shards", "run_shard"]


def plan_shards(batch: int, workers: int) -> list[tuple[int, int]]:
    """Split ``batch`` items into at most ``workers`` contiguous shards.

    Shards are balanced to within one item (ragged batches supported),
    never empty, and returned in ascending offset order covering
    ``[0, batch)`` exactly.  With ``workers >= batch`` every item gets
    its own shard; with ``workers == 1`` the single shard is the whole
    batch.

    Args:
        batch: total batch items (>= 1).
        workers: requested worker count (>= 1).

    Returns:
        ``[(offset, count), ...]`` with ``len == min(workers, batch)``.
    """
    if not isinstance(batch, int) or isinstance(batch, bool) or batch < 1:
        raise ValueError("batch must be a positive integer")
    if not isinstance(workers, int) or isinstance(workers, bool) \
            or workers < 1:
        raise ValueError("workers must be a positive integer")
    n_shards = min(workers, batch)
    base, extra = divmod(batch, n_shards)
    shards = []
    offset = 0
    for k in range(n_shards):
        count = base + (1 if k < extra else 0)
        shards.append((offset, count))
        offset += count
    return shards


@dataclasses.dataclass(frozen=True)
class ShardResult:
    """What one worker returns for one batch window.

    Attributes:
        offset: first absolute batch index of the window.
        count: window length.
        outputs: the windowed adapter's outputs dict.
        base_cost: window-independent base cost (identical across
            shards of one spec; the merge uses shard 0's).
        item_costs: one cost record per window item, in window order.
        fidelity: the window's fabric-fidelity summary (None for ideal
            specs); folded across shards by the engine's declared
            ``merge_window_fidelity`` policy.
        accuracy: the window's application-accuracy summary (None for
            engines without an accuracy axis); folded across shards by
            ``merge_window_accuracy``.
        wall_seconds: the worker's execution wall time.
    """

    offset: int
    count: int
    outputs: dict[str, Any]
    base_cost: CostSummary
    item_costs: tuple[CostSummary, ...]
    wall_seconds: float
    fidelity: FidelitySummary | None = None
    accuracy: AccuracySummary | None = None


def run_shard(task: tuple[ScenarioSpec, int, int]) -> ShardResult:
    """Worker body: execute one batch window of ``spec``.

    The ``"window"`` task of :class:`~repro.parallel.pool.WorkerPool`;
    it computes the same thing in a worker process as in-process.
    """
    spec, offset, count = task
    started = time.perf_counter()
    with span("shard.window", offset=offset, count=count):
        engine = Engine.from_spec(spec)
        adapter = adapter_for(spec, engine.name, window=(offset, count))
        engine.check_params(adapter)
        outputs, base, item_costs = engine.execute_window(adapter)
    return ShardResult(
        offset=offset,
        count=count,
        outputs=outputs,
        base_cost=base,
        item_costs=tuple(item_costs),
        wall_seconds=time.perf_counter() - started,
        fidelity=engine.window_fidelity(),
        accuracy=engine.window_accuracy(),
    )


def merge_shard_results(
    spec: ScenarioSpec,
    engine: Engine,
    shard_results: Sequence[ShardResult],
    parallel_provenance: Mapping[str, Any],
    wall_seconds: float,
) -> RunResult:
    """Fold per-window shard results into the whole-run RunResult.

    Per-item costs concatenate in plan order, the run cost is
    re-aggregated by the engine's own fold over that concatenation
    (same float-addition order as ``workers=1``), outputs merge through
    the workload adapter, and fidelity/accuracy fold by the engine's
    declared policies -- which is what keeps ``workers=N``
    bit-identical to ``workers=1``.

    Args:
        spec: the scenario the shards belong to.
        engine: a bound engine for ``spec`` (merge policies live on the
            class; the instance is not re-executed).
        shard_results: one :class:`ShardResult` per window, in plan
            (ascending offset) order.
        parallel_provenance: the executor's scheduling record (worker
            counts, pool flavour, per-shard wall times); stored under
            ``provenance["parallel"]``.
        wall_seconds: the whole sharded run's wall time.
    """
    shard_results = list(shard_results)
    with span("shards.merge", shards=len(shard_results)):
        merge_adapter = adapter_for(spec, engine.name)
        outputs = merge_adapter.merge_shard_outputs(
            [s.outputs for s in shard_results])
        item_costs = tuple(
            c for s in shard_results for c in s.item_costs)
        cost = type(engine).aggregate_cost(
            shard_results[0].base_cost, list(item_costs))
        fidelity = type(engine).merge_window_fidelity(
            [s.fidelity for s in shard_results])
        accuracy = type(engine).merge_window_accuracy(
            [s.accuracy for s in shard_results])
    provenance = {
        "engine": engine.name,
        "workload": spec.workload,
        "device": spec.device.name,
        "seed": spec.seed,
        "repro_version": repro.__version__,
        "wall_seconds": wall_seconds,
        "parallel": dict(parallel_provenance),
    }
    if not spec.device.is_plain:
        provenance["device_overrides"] = dict(spec.device.overrides)
    tracer = active_tracer()
    if tracer is not None:
        # Same linkage Engine.run stamps: scheduling provenance, never
        # part of determinism comparisons.  started_at is anchored by
        # subtracting the run duration (the executor measured it; the
        # merge runs immediately after).
        provenance["trace"] = {
            "trace_id": tracer.trace_id,
            "started_at": tracer.wall_now() - wall_seconds,
            "duration_seconds": wall_seconds,
        }
    return RunResult(
        spec=spec,
        outputs=outputs,
        cost=cost,
        item_costs=item_costs,
        provenance=provenance,
        fidelity=fidelity,
        accuracy=accuracy,
    )
