"""Serving bench: warm pool vs per-run spawn, served vs serial.

Two throughput stories land in ``BENCH_serving.json`` (see
``benchmarks/conftest.py`` for where):

* **pool_vs_spawn** -- the same sharded run executed through a
  long-lived warm :class:`~repro.parallel.pool.WorkerPool` versus a
  fresh :class:`~repro.parallel.runner.ParallelRunner` per run, which
  starts a new pool for that run.  The warm pool amortizes process
  forks, interpreter warm-up and cold caches across runs.
* **coalesced_vs_serial** -- a burst of seed-variant requests driven
  concurrently through :class:`~repro.serving.service.Service`
  (deduped, one pool task per request, answered by warm workers)
  versus the same specs executed back-to-back serially.  The record
  keeps its historical ``coalesced`` names.

Like the parallel bench, the scaling gates are a property of the
*machine*: on >= 2 CPUs the acceptance bars apply (warm pool >= 1.5x
spawn; served >= 3x serial); a 1-CPU container records the honest
ratios plus only overhead floors, and the JSON says which gate was
applied.  Determinism is asserted unconditionally: every served result
must be bit-identical to its serial engine run.
"""

from __future__ import annotations

import asyncio

from repro.api import Engine, ScenarioSpec
from repro.bench import (
    available_cpus,
    measure_throughput,
    smoke_mode,
    speedup,
    write_bench_json,
)
from repro.parallel import ParallelRunner
from repro.serving import Service, WorkerPool, serve_all


WORKERS = 4
BATCH = 8 if smoke_mode() else 32
SIZE = 512 if smoke_mode() else 2048
ITEMS = 4
REQUESTS = 4 if smoke_mode() else 8
REPEATS = 3
MIN_POOL_VS_SPAWN = 1.5      # acceptance bar, >= 2 CPUs
MIN_COALESCED_VS_SERIAL = 3.0
MIN_RATIO_1CPU = 0.5         # overhead floors on a single CPU
MIN_COALESCED_1CPU = 0.3

SPEC = ScenarioSpec(engine="mvp_batched", workload="database",
                    size=SIZE, items=ITEMS, batch=BATCH, seed=0)
BURST = [SPEC.replaced(seed=seed) for seed in range(REQUESTS)]


def _comparable(result) -> dict:
    data = result.to_dict()
    for key in ("wall_seconds", "parallel", "cache"):
        data["provenance"].pop(key, None)
    return data


def _serve_burst(pool: WorkerPool) -> list:
    async def main():
        async with Service(pool=pool) as service:
            return await serve_all(service, BURST)

    return asyncio.run(main())


def test_serving_throughput(save_report, bench_dir):
    cpus = available_cpus()
    serial_results = [Engine.from_spec(spec).run() for spec in BURST]
    ops = int(sum(r.cost.counters["bit_operations"]
                  for r in serial_results))
    run_ops = int(serial_results[0].cost.counters["bit_operations"])

    # A fresh runner per run: a runner keeps its pool warm across
    # calls, so only a new one starts (and, dropped, stops) a pool.
    spawn = measure_throughput(
        f"spawn_pool_workers{WORKERS}",
        lambda: ParallelRunner(workers=WORKERS).run(SPEC),
        ops=run_ops, repeats=REPEATS,
    )
    with WorkerPool(workers=WORKERS, mode="fork") as pool:
        # Determinism bar: the warm pool computes exactly what the
        # plain engine computes, sharded or served.
        warm_result = pool.run(SPEC)
        assert _comparable(warm_result) == _comparable(serial_results[0])
        warm = measure_throughput(
            f"warm_pool_workers{WORKERS}",
            lambda: pool.run(SPEC),
            ops=run_ops, repeats=REPEATS,
        )

    serial = measure_throughput(
        f"serial_{REQUESTS}requests",
        lambda: [Engine.from_spec(spec).run() for spec in BURST],
        ops=ops, repeats=REPEATS,
    )
    with WorkerPool(workers=WORKERS, mode="fork") as pool:
        served = _serve_burst(pool)
        for got, want in zip(served, serial_results):
            assert _comparable(got) == _comparable(want), \
                "served result differs from serial engine run"
        coalesced = measure_throughput(
            f"coalesced_{REQUESTS}requests",
            lambda: _serve_burst(pool),
            ops=ops, repeats=REPEATS,
        )

    pool_ratio = speedup(warm, spawn)
    coalesce_ratio = speedup(coalesced, serial)
    # Honest gate accounting (see test_parallel_throughput.py): bars
    # apply only off smoke mode and with >= 2 CPUs.
    scaling_asserted = (not smoke_mode()) and cpus >= 2
    if smoke_mode():
        gate = "skipped: smoke workload below pool startup cost"
    elif cpus >= 2:
        gate = (f"asserted: pool >= {MIN_POOL_VS_SPAWN}x spawn, "
                f"coalesced >= {MIN_COALESCED_VS_SERIAL}x serial "
                f"on {cpus} CPUs")
    else:
        gate = (f"skipped: {cpus} CPU cannot scale; overhead floors "
                f"{MIN_RATIO_1CPU}x/{MIN_COALESCED_1CPU}x only")
    results = [spawn, warm, serial, coalesced]
    write_bench_json(
        bench_dir / "BENCH_serving.json",
        results,
        speedups={
            "pool_vs_spawn": pool_ratio,
            "coalesced_vs_serial": coalesce_ratio,
        },
        extra={
            "workers": WORKERS,
            "batch": BATCH,
            "size": SIZE,
            "items": ITEMS,
            "requests": REQUESTS,
            "deterministic_vs_serial": True,
            "scaling_asserted": scaling_asserted,
            "scaling_gate": gate,
        },
    )

    headers = ["workload", "ops", "seconds", "ops_per_second"]
    rows = [(r.name, r.ops, r.seconds, r.ops_per_second)
            for r in results]
    lines = [
        f"serving throughput (workers = {WORKERS}, B = {BATCH}, "
        f"rows = {SIZE}, requests = {REQUESTS}, cpus = {cpus}, "
        f"smoke = {smoke_mode()})",
        *(f"  {r.name:<24} {r.ops_per_second:>12.0f} bit-ops/s"
          for r in results),
        f"  speedup warm-pool/spawn:      {pool_ratio:.2f}x",
        f"  speedup coalesced/serial:     {coalesce_ratio:.2f}x",
        f"  gate: {gate}",
        "  served results bit-identical to serial runs: yes",
    ]
    save_report("serving_throughput", "\n".join(lines),
                csv_headers=headers, csv_rows=rows)

    if smoke_mode():
        return
    if cpus >= 2:
        assert pool_ratio >= MIN_POOL_VS_SPAWN, (
            f"warm pool delivers only {pool_ratio:.2f}x the per-run "
            f"spawn path on {cpus} CPUs "
            f"(need >= {MIN_POOL_VS_SPAWN}x)"
        )
        assert coalesce_ratio >= MIN_COALESCED_VS_SERIAL, (
            f"coalesced serving delivers only {coalesce_ratio:.2f}x "
            f"serial submission on {cpus} CPUs "
            f"(need >= {MIN_COALESCED_VS_SERIAL}x)"
        )
    else:
        assert pool_ratio >= MIN_RATIO_1CPU, (
            f"warm pool overhead collapsed throughput to "
            f"{pool_ratio:.2f}x of the spawn path on one CPU "
            f"(floor {MIN_RATIO_1CPU}x)"
        )
        assert coalesce_ratio >= MIN_COALESCED_1CPU, (
            f"serving overhead collapsed throughput to "
            f"{coalesce_ratio:.2f}x of serial submission on one CPU "
            f"(floor {MIN_COALESCED_1CPU}x)"
        )
