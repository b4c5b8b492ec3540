"""Sharded-executor bench: scaling, overhead bound and determinism.

Measures whole facade runs of the batched MVP database scenario --
workload generation, execution, golden verification, merge -- at
``workers=1`` (plain in-process) versus ``workers=4`` (sharded across
the worker pool one runner keeps warm between calls), plus a warm-cache
replay.  The scaling ratio is the median of paired back-to-back timings
(:func:`repro.bench.paired_comparison`), so it times sharding, not pool
start-up.  A runner built per call, which forks and warms a new pool
each time, is recorded beside it with no gate.  The perf trajectory
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
    paired_comparison,
    smoke_mode,
    speedup,
    write_bench_json,
)
from repro.parallel import ParallelRunner


WORKERS = 4
BATCH = 8 if smoke_mode() else 32
SIZE = 512 if smoke_mode() else 2048   # table rows (= crossbar columns)
ITEMS = 4                              # CNF queries per run
REPEATS = 3                            # cache-replay timings
PAIRS = 16                             # paired workers=1 / workers=4 runs
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
    # the sharded run computes the same thing.  It also starts and
    # warms the kept runner's pool, so the timings below leave out its
    # start-up.
    serial_runner = ParallelRunner(workers=1)
    kept_runner = ParallelRunner(workers=WORKERS)
    serial_result = serial_runner.run(SPEC)
    sharded_result = kept_runner.run(SPEC)
    assert serial_result.ok
    assert _comparable(sharded_result) == _comparable(serial_result), \
        "workers=4 result differs from workers=1 -- determinism broken"
    assert sharded_result.cost == serial_result.cost
    assert sharded_result.item_costs == serial_result.item_costs

    ops = int(serial_result.cost.counters["bit_operations"])
    # Ungated: a new runner per call pays a pool start every time.  It
    # runs first because its pairs also keep every CPU busy for a few
    # seconds: a CPU that sat idle can take over a second to reach full
    # speed (seen on a 2-vCPU VM), which the gated pairs must not time.
    _, fresh, fresh_ratio = paired_comparison(
        ("facade_workers1", lambda: serial_runner.run(SPEC)),
        (f"facade_workers{WORKERS}_fresh_runner",
         lambda: ParallelRunner(workers=WORKERS).run(SPEC)),
        ops, pairs=PAIRS,
    )
    serial, sharded, ratio = paired_comparison(
        ("facade_workers1", lambda: serial_runner.run(SPEC)),
        (f"facade_workers{WORKERS}", lambda: kept_runner.run(SPEC)),
        ops, pairs=PAIRS,
    )
    warm = ParallelRunner(workers=1, cache=tmp_path / "cache")
    warm.run(SPEC)  # populate
    cached = measure_throughput(
        "facade_cache_hit",
        lambda: warm.run(SPEC),
        ops=ops, repeats=REPEATS,
    )

    cache_ratio = speedup(cached, serial)
    results = [serial, sharded, fresh, cached]
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
            f"fresh_runner_{WORKERS}workers_vs_1": fresh_ratio,
            "cache_hit_vs_compute": cache_ratio,
        },
        extra={
            "workers": WORKERS,
            "batch": BATCH,
            "size": SIZE,
            "items": ITEMS,
            "pairs": PAIRS,
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
        *(f"  {r.name:<30} {r.ops_per_second:>12.0f} bit-ops/s"
          for r in results),
        f"  speedup workers{WORKERS}/workers1: {ratio:.2f}x "
        f"(median of {PAIRS} paired runs, kept runner)",
        f"  fresh runner per call:       {fresh_ratio:.2f}x (no gate)",
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
