"""Nonideality-stack overhead bench: the ideal path must stay free.

Spec v2 routes every engine's hardware construction through
``Engine.build_fabric``, which dispatches between the ideal
``Crossbar``/``CrossbarStack`` and the nonideal fabrics.  The product
bar: with an all-default spec, the v2-aware engine path costs < 5%
versus driving the seed processors directly -- the hook may not tax
users who never touch the new axes.  The estimate is the median of
paired back-to-back timings (:func:`repro.bench.paired_comparison`).
The fault-injection sweep throughput (nonideal fabrics, per-item
campaigns, fidelity probes) is *recorded* for the perf trajectory but
not gated: robustness studies pay for the physics they ask for.

Measurements land in ``BENCH_nonideal.json`` and
``results/nonideal_overhead.txt`` (see ``benchmarks/conftest.py`` for
where).
"""

from __future__ import annotations

import time

from repro.api import Engine, ScenarioSpec, adapter_for
from repro.bench import (
    ThroughputResult,
    paired_comparison,
    smoke_mode,
    write_bench_json,
)
from repro.crossbar import CrossbarStack
from repro.mvp.batch import BatchedMVPProcessor
from repro.parallel import SweepRunner, expand_grid


BATCH = 16 if smoke_mode() else 64
SIZE = 512 if smoke_mode() else 4096
ITEMS = 4
PAIRS = 30
MAX_OVERHEAD = 0.10 if smoke_mode() else 0.05

SPEC = ScenarioSpec(engine="mvp_batched", workload="database",
                    size=SIZE, items=ITEMS, batch=BATCH, seed=0)

FAULT_SPEC = SPEC.replaced(
    size=min(SIZE, 512), batch=min(BATCH, 8),
    nonideality={"fault_rate": 0.01},
)


def _v2_engine_run() -> None:
    Engine.from_spec(SPEC).run()


def _direct_seed_run() -> None:
    # The seed engines' work with no facade and no fabric hook:
    # workload lowering, ideal-stack construction, program execution,
    # golden verification, per-item stats.
    adapter = adapter_for(SPEC, "mvp_batched")
    rows, cols = adapter.mvp_geometry()
    processor = BatchedMVPProcessor(
        CrossbarStack(SPEC.batch, rows, cols))
    outputs = adapter.run_mvp_batched(processor)
    assert outputs["checks_passed"]
    for item in range(processor.batch):
        processor.stats_for(item)
    processor.total_stats()


def _fault_sweep() -> int:
    """One fault-rate x sigma robustness sweep; returns cells run."""
    specs = expand_grid(
        FAULT_SPEC.replaced(nonideality={}),
        {"fault_rate": [0.0, 0.005, 0.01],
         "variability_sigma": [0.0, 0.2]},
    )
    results = SweepRunner(workers=1).run(specs)
    assert len(results) == 6
    assert any(r.fidelity is not None for r in results)
    return len(results)


class TestNonidealOverhead:
    def test_ideal_path_overhead_under_bar(self, save_report,
                                           bench_dir, benchmark):
        ops = int(Engine.from_spec(SPEC).run()
                  .cost.counters["bit_operations"])
        _direct_seed_run()  # warm both paths
        direct, v2, ratio = paired_comparison(
            ("direct_seed_ideal_batched_mvp", _direct_seed_run),
            ("specv2_ideal_batched_mvp", _v2_engine_run),
            ops, pairs=PAIRS,
        )                   # ratio > 1 means v2 was faster
        overhead = max(0.0, 1.0 - ratio)

        benchmark(_v2_engine_run)

        # Fault-injection sweep throughput (recorded, not gated).
        t0 = time.perf_counter()
        cells = _fault_sweep()
        sweep_seconds = time.perf_counter() - t0
        sweep_result = ThroughputResult(
            name="nonideal_fault_sweep_cells", ops=cells,
            seconds=sweep_seconds,
            ops_per_second=cells / sweep_seconds, repeats=1,
        )

        write_bench_json(
            bench_dir / "BENCH_nonideal.json",
            [direct, v2, sweep_result],
            speedups={"specv2_ideal_vs_direct_seed": ratio},
        )
        text = (
            f"nonideality-stack overhead bench (B={BATCH}, "
            f"rows={SIZE}, queries={ITEMS})\n"
            f"direct seed processors:     {direct.ops_per_second:.3e} "
            f"bit-ops/s\n"
            f"spec-v2 engine (ideal):     {v2.ops_per_second:.3e} "
            f"bit-ops/s\n"
            f"v2/direct throughput:       {ratio:.4f} "
            f"(overhead {overhead:.2%}, bar {MAX_OVERHEAD:.0%}; "
            f"median of {PAIRS} paired runs)\n"
            f"fault sweep (6 cells, fault_rate x sigma, "
            f"B={FAULT_SPEC.batch}, rows={FAULT_SPEC.size}): "
            f"{sweep_result.ops_per_second:.3g} cells/s"
        )
        save_report("nonideal_overhead", text)

        assert overhead < MAX_OVERHEAD, (
            f"spec-v2 fabric hook adds {overhead:.2%} overhead on the "
            f"ideal path (bar: {MAX_OVERHEAD:.0%}); direct="
            f"{direct.ops_per_second:.3e} v2="
            f"{v2.ops_per_second:.3e} bit-ops/s"
        )
