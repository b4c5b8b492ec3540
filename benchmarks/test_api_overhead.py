"""Facade overhead bench: the api layer must cost < 5% vs direct calls.

The unified ``Engine.from_spec(spec).run()`` path adds registry
dispatch, spec validation, adapter construction and RunResult packaging
on top of the PR-1 batch engine.  This bench runs the identical batched
database workload both ways -- through the facade and by driving
``BatchedMVPProcessor`` directly on the same adapter-generated programs
-- and asserts the facade's throughput is within 5% of the direct
path's.  The estimate is the median of paired back-to-back timings
(:func:`repro.bench.paired_comparison`); the recorded rates are each
path's median.  The measurements land in ``BENCH_api.json`` (see
``benchmarks/conftest.py`` for where), the perf trajectory CI reads.
"""

from __future__ import annotations

from repro.api import Engine, ScenarioSpec, adapter_for
from repro.bench import paired_comparison, smoke_mode, write_bench_json
from repro.crossbar import CrossbarStack
from repro.mvp.batch import BatchedMVPProcessor


BATCH = 16 if smoke_mode() else 64
SIZE = 512 if smoke_mode() else 4096   # table rows (= crossbar columns)
ITEMS = 4                              # CNF queries per run
PAIRS = 30                             # paired direct/facade timings
# The product bar is <5%, asserted on the full-size workload.  Smoke
# runs (CI on shared runners) use a shrunken workload where a single
# scheduler stall is a larger fraction of the runtime, so they get a
# noise allowance on top of the same measurement.
MAX_OVERHEAD = 0.10 if smoke_mode() else 0.05

SPEC = ScenarioSpec(engine="mvp_batched", workload="database",
                    size=SIZE, items=ITEMS, batch=BATCH, seed=0)


def _facade_run() -> None:
    Engine.from_spec(SPEC).run()


def _direct_run() -> None:
    # The same work with no facade: workload lowering, program execution
    # on BatchedMVPProcessor, golden verification and per-item stats --
    # everything Engine.run produces, minus the api layer itself
    # (registry dispatch, spec validation, RunResult packaging).
    adapter = adapter_for(SPEC, "mvp_batched")
    rows, cols = adapter.mvp_geometry()
    processor = BatchedMVPProcessor(
        CrossbarStack(SPEC.batch, rows, cols))
    outputs = adapter.run_mvp_batched(processor)
    assert outputs["checks_passed"]
    for item in range(processor.batch):
        processor.stats_for(item)
    processor.total_stats()


def _ops_per_run() -> int:
    result = Engine.from_spec(SPEC).run()
    return int(result.cost.counters["bit_operations"])


class TestFacadeOverhead:
    def test_facade_overhead_under_five_percent(self, save_report,
                                                bench_dir, benchmark):
        ops = _ops_per_run()       # also warms both code paths
        _direct_run()
        direct, facade, ratio = paired_comparison(
            ("direct_batched_mvp", _direct_run),
            ("facade_batched_mvp", _facade_run),
            ops, pairs=PAIRS,
        )                          # ratio > 1 means the facade was faster
        overhead = max(0.0, 1.0 - ratio)

        benchmark(_facade_run)

        write_bench_json(
            bench_dir / "BENCH_api.json",
            [direct, facade],
            speedups={"facade_vs_direct": ratio},
        )
        text = (
            f"facade overhead bench (B={BATCH}, rows={SIZE}, "
            f"queries={ITEMS})\n"
            f"direct BatchedMVPProcessor: {direct.ops_per_second:.3e} "
            f"bit-ops/s\n"
            f"facade Engine.run:          {facade.ops_per_second:.3e} "
            f"bit-ops/s\n"
            f"facade/direct throughput:   {ratio:.4f} "
            f"(overhead {overhead:.2%}, bar {MAX_OVERHEAD:.0%}; "
            f"median of {PAIRS} paired runs)"
        )
        save_report("api_overhead", text)

        assert overhead < MAX_OVERHEAD, (
            f"facade adds {overhead:.2%} overhead vs direct batched "
            f"execution (bar: {MAX_OVERHEAD:.0%}); direct="
            f"{direct.ops_per_second:.3e} facade="
            f"{facade.ops_per_second:.3e} bit-ops/s"
        )
