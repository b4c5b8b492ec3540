"""Sharded-executor bench: scaling, overhead bound and determinism.

Measures whole facade runs of the batched MVP database scenario --
workload generation, execution, golden verification, merge -- at
``workers=1`` (plain in-process) versus ``workers=4`` (sharded across
a worker pool entered for each run), plus a warm-cache replay.  The perf trajectory
lands in ``BENCH_parallel.json`` and a rendered table under
``results/parallel_throughput.txt`` (see ``benchmarks/conftest.py`` for
where).

Parallel speedup is a property of the *machine*, not the code: a
4-worker pool cannot beat one worker on a 1-CPU container.  The bench
therefore records ``cpus`` (affinity-aware) next to the measured ratio
and scales its assertion to the hardware:

* >= 4 CPUs: the >= 2.5x acceptance bar at 4 workers;
* 2-3 CPUs: >= 1.2x (parallelism visible, bar pro-rated);
* 1 CPU: no scaling claim -- only the overhead bound (sharding must
  not collapse throughput) and, everywhere, the determinism bar:
  ``workers=4`` output bit-identical to ``workers=1``.

Smoke mode (``REPRO_BENCH_SMOKE=1``) shrinks the workload below the
pool's ~50-100 ms startup cost, where no worker count can win on any
machine; smoke runs therefore record the measurements and assert only
determinism and the cache-replay win, leaving the scaling bars to the
full-size workload.
"""

from __future__ import annotations

from repro.api import ScenarioSpec
from repro.bench import (
    available_cpus,
    measure_throughput,
    smoke_mode,
    speedup,
    write_bench_json,
)
from repro.parallel import ParallelRunner


WORKERS = 4
BATCH = 8 if smoke_mode() else 32
SIZE = 512 if smoke_mode() else 2048   # table rows (= crossbar columns)
ITEMS = 4                              # CNF queries per run
REPEATS = 3
MIN_SPEEDUP_4CPU = 2.5   # the acceptance bar on adequate hardware
MIN_SPEEDUP_2CPU = 1.2
MIN_RATIO_1CPU = 0.15    # overhead bound: pool must not collapse thput

SPEC = ScenarioSpec(engine="mvp_batched", workload="database",
                    size=SIZE, items=ITEMS, batch=BATCH, seed=0)


def _comparable(result) -> dict:
    data = result.to_dict()
    for key in ("wall_seconds", "parallel", "cache"):
        data["provenance"].pop(key, None)
    return data


def test_parallel_throughput(save_report, bench_dir, tmp_path):
    cpus = available_cpus()

    # Determinism bar first: the speedup below is only meaningful if
    # the sharded run computes the same thing.
    serial_result = ParallelRunner(workers=1).run(SPEC)
    sharded_result = ParallelRunner(workers=WORKERS).run(SPEC)
    assert serial_result.ok
    assert _comparable(sharded_result) == _comparable(serial_result), \
        "workers=4 result differs from workers=1 -- determinism broken"
    assert sharded_result.cost == serial_result.cost
    assert sharded_result.item_costs == serial_result.item_costs

    ops = int(serial_result.cost.counters["bit_operations"])
    serial = measure_throughput(
        "facade_workers1",
        lambda: ParallelRunner(workers=1).run(SPEC),
        ops=ops, repeats=REPEATS,
    )
    sharded = measure_throughput(
        f"facade_workers{WORKERS}",
        lambda: ParallelRunner(workers=WORKERS).run(SPEC),
        ops=ops, repeats=REPEATS,
    )
    warm = ParallelRunner(workers=1, cache=tmp_path / "cache")
    warm.run(SPEC)  # populate
    cached = measure_throughput(
        "facade_cache_hit",
        lambda: warm.run(SPEC),
        ops=ops, repeats=REPEATS,
    )

    ratio = speedup(sharded, serial)
    cache_ratio = speedup(cached, serial)
    results = [serial, sharded, cached]
    # Record the gate decision honestly: a speedup bar is only asserted
    # on full-size workloads AND >= 2 CPUs.  A 1-CPU container gets the
    # overhead floor, never a scaling claim -- and the JSON must say so
    # rather than reporting "scaling_asserted: true" next to "cpus: 1".
    scaling_asserted = (not smoke_mode()) and cpus >= 2
    if smoke_mode():
        scaling_gate = "skipped: smoke workload below pool startup cost"
    elif cpus >= WORKERS:
        scaling_gate = f"asserted: >= {MIN_SPEEDUP_4CPU}x on {cpus} CPUs"
    elif cpus >= 2:
        scaling_gate = f"asserted: >= {MIN_SPEEDUP_2CPU}x on {cpus} CPUs"
    else:
        scaling_gate = (f"skipped: {cpus} CPU cannot scale; overhead "
                        f"floor {MIN_RATIO_1CPU}x only")
    write_bench_json(
        bench_dir / "BENCH_parallel.json",
        results,
        speedups={
            f"parallel_{WORKERS}workers_vs_1": ratio,
            "cache_hit_vs_compute": cache_ratio,
        },
        extra={
            "workers": WORKERS,
            "batch": BATCH,
            "size": SIZE,
            "items": ITEMS,
            "deterministic_vs_workers1": True,
            "scaling_asserted": scaling_asserted,
            "scaling_gate": scaling_gate,
        },
    )

    headers = ["workload", "ops", "seconds", "ops_per_second"]
    rows = [(r.name, r.ops, r.seconds, r.ops_per_second)
            for r in results]
    lines = [
        f"parallel throughput (workers = {WORKERS}, B = {BATCH}, "
        f"rows = {SIZE}, cpus = {cpus}, smoke = {smoke_mode()})",
        *(f"  {r.name:<20} {r.ops_per_second:>12.0f} bit-ops/s"
          for r in results),
        f"  speedup workers{WORKERS}/workers1: {ratio:.2f}x",
        f"  speedup cache-hit/compute:  {cache_ratio:.1f}x",
        "  workers=4 output bit-identical to workers=1: yes",
    ]
    save_report("parallel_throughput", "\n".join(lines),
                csv_headers=headers, csv_rows=rows)

    assert cache_ratio > 1.0, (
        f"cache hit ({cached.ops_per_second:.3e} ops/s) should beat "
        f"recomputation ({serial.ops_per_second:.3e} ops/s)"
    )
    if smoke_mode():
        # The shrunken workload (~tens of ms) is smaller than pool
        # startup itself: no scaling bar is meaningful, on any CPU
        # count.  Determinism and the cache win were asserted above.
        return
    if cpus >= WORKERS:
        assert ratio >= MIN_SPEEDUP_4CPU, (
            f"{WORKERS} workers on {cpus} CPUs deliver only {ratio:.2f}x "
            f"(need >= {MIN_SPEEDUP_4CPU}x)"
        )
    elif cpus >= 2:
        assert ratio >= MIN_SPEEDUP_2CPU, (
            f"{WORKERS} workers on {cpus} CPUs deliver only {ratio:.2f}x "
            f"(need >= {MIN_SPEEDUP_2CPU}x)"
        )
    else:
        assert ratio >= MIN_RATIO_1CPU, (
            f"sharding overhead collapsed throughput to {ratio:.2f}x "
            f"on a single CPU (floor {MIN_RATIO_1CPU}x)"
        )
