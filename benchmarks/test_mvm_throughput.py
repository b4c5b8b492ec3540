"""Analog MVM subsystem throughput + the fault-rate accuracy sweep.

Two measurements:

* **matvec throughput** of the ``analog_mvm`` engine on the MLP
  workload (ideal fabric): whole facade runs normalized to analog
  matrix-vector products per second, plus the engine's ADC-conversion
  rate -- the subsystem's hot path;
* **fault-rate accuracy sweep** (recorded, not gated): the 3-point
  stuck-at sweep of the acceptance criteria, persisting the measured
  task accuracy per fault rate so the accuracy-vs-nonideality
  trajectory is inspectable without re-running.

The ideal run must pass its quantized-reference golden check and the
sweep's accuracy must be non-increasing in fault rate -- the paper's
qualitative claim, pinned.

Measurements land in ``BENCH_mvm.json`` and
``results/mvm_throughput.txt`` (see ``benchmarks/conftest.py`` for where).
"""

from __future__ import annotations

import time

from repro.api import Engine, ScenarioSpec
from repro.bench import (
    ThroughputResult,
    measure_throughput,
    smoke_mode,
    write_bench_json,
)
from repro.parallel import SweepRunner, expand_grid


SAMPLES = 8 if smoke_mode() else 32
BATCH = 2 if smoke_mode() else 8
HIDDEN = 8 if smoke_mode() else 16
REPEATS = 3
FAULT_RATES = [0.0, 0.05, 0.25]

SPEC = ScenarioSpec(engine="analog_mvm", workload="mlp_inference",
                    size=SAMPLES, items=HIDDEN, batch=BATCH, seed=0)


def _run() -> None:
    result = Engine.from_spec(SPEC).run()
    assert result.ok, "ideal analog run failed its reference check"


class TestMVMThroughput:
    def test_throughput_and_fault_sweep(self, save_report, bench_dir,
                                        benchmark):
        probe = Engine.from_spec(SPEC).run()
        assert probe.ok
        # Two layers per sample; every item contributes size samples.
        matvecs = 2 * SAMPLES * BATCH
        conversions = int(probe.cost.counters["adc_conversions"])

        measured = measure_throughput(
            f"analog_mvm_matvecs_b{BATCH}", _run,
            ops=matvecs, repeats=REPEATS,
        )
        adc_rate = ThroughputResult(
            name=f"analog_mvm_adc_conversions_b{BATCH}",
            ops=conversions, seconds=measured.seconds,
            ops_per_second=conversions / measured.seconds,
            repeats=REPEATS,
        )

        benchmark(_run)

        t0 = time.perf_counter()
        specs = expand_grid(SPEC.replaced(batch=min(BATCH, 4)),
                            {"fault_rate": FAULT_RATES})
        results = SweepRunner(workers=1).run(specs)
        sweep_seconds = time.perf_counter() - t0
        accuracies = [r.accuracy.task_accuracy for r in results]
        assert accuracies == sorted(accuracies, reverse=True), (
            f"accuracy must degrade monotonically with fault rate, "
            f"got {accuracies} at rates {FAULT_RATES}"
        )
        sweep_result = ThroughputResult(
            name="analog_mvm_fault_sweep_cells", ops=len(results),
            seconds=sweep_seconds,
            ops_per_second=len(results) / sweep_seconds, repeats=1,
        )

        write_bench_json(
            bench_dir / "BENCH_mvm.json",
            [measured, adc_rate, sweep_result],
            extra={
                "samples_per_item": SAMPLES,
                "batch": BATCH,
                "hidden": HIDDEN,
                "fault_rates": FAULT_RATES,
                "fault_sweep_accuracy": accuracies,
            },
        )
        sweep_rows = "\n".join(
            f"  fault_rate={rate:<5} accuracy={acc:.4f}  "
            f"agreement={r.accuracy.reference_agreement:.4f}"
            for rate, acc, r in zip(FAULT_RATES, accuracies, results)
        )
        text = (
            f"analog MVM throughput bench (B={BATCH}, "
            f"samples={SAMPLES}, hidden={HIDDEN})\n"
            f"engine matvec throughput:   "
            f"{measured.ops_per_second:.3e} matvecs/s\n"
            f"ADC conversion rate:        "
            f"{adc_rate.ops_per_second:.3e} conversions/s\n"
            f"fault-rate accuracy sweep ({len(results)} cells, "
            f"{sweep_result.ops_per_second:.3g} cells/s):\n"
            f"{sweep_rows}"
        )
        save_report("mvm_throughput", text)
