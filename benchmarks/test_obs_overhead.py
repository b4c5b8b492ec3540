"""Telemetry overhead bench: observability may not tax the ideal path.

The tracing subsystem (:mod:`repro.obs`) instruments the engine
facade, the MVM kernel stages and the executors.  Two product bars
keep it honest:

* **enabled**: a run under an active tracer must cost < 5% versus the
  identical untraced run (median of paired back-to-back timings,
  :func:`repro.bench.paired_comparison`, as in
  ``test_nonideal_overhead.py``);
* **disabled**: with no active tracer every ``span()`` site is one
  module-global read plus a ``None`` check.  The bar is an estimate by
  construction -- per-site cost x sites hit per run must stay <= 1% of
  the run -- because the true disabled delta is far below timer noise.

Measurements land in ``BENCH_obs.json`` and
``results/obs_overhead.txt`` (see ``benchmarks/conftest.py`` for where).
"""

from __future__ import annotations

import time

from repro.api import Engine, ScenarioSpec
from repro.bench import paired_comparison, smoke_mode, write_bench_json
from repro.obs import span, traced


# Span count scales with ITEMS (per-window spans); kernel work scales
# with SIZE^2 x BATCH.  Keep ITEMS small and the windows heavy so the
# measured ratio reflects per-span cost against realistic work, not
# against a degenerate microsecond-scale window.
SIZE = 32 if smoke_mode() else 48
ITEMS = 4 if smoke_mode() else 8
BATCH = 32 if smoke_mode() else 32
# A run takes ~30 ms, so single stalls weigh more than in the MVP
# overhead benches: twice their pairs keep the median as steady.
PAIRS = 60
MAX_ENABLED_OVERHEAD = 0.10 if smoke_mode() else 0.05
MAX_DISABLED_OVERHEAD = 0.01
NOOP_SPAN_CALLS = 50_000 if smoke_mode() else 200_000

SPEC = ScenarioSpec(engine="analog_mvm", workload="mlp_inference",
                    size=SIZE, items=ITEMS, batch=BATCH, seed=0)


def _untraced_run() -> None:
    Engine.from_spec(SPEC).run()


def _traced_run() -> int:
    with traced() as tracer:
        Engine.from_spec(SPEC).run()
    return len(tracer)


def _noop_span_seconds() -> float:
    """Per-site cost of a ``span()`` with tracing disabled."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(NOOP_SPAN_CALLS):
            with span("bench.noop"):
                pass
        best = min(best, time.perf_counter() - t0)
    return best / NOOP_SPAN_CALLS


class TestObsOverhead:
    def test_tracing_overhead_under_bars(self, save_report, bench_dir,
                                         benchmark):
        ops = int(Engine.from_spec(SPEC).run()
                  .cost.counters["adc_conversions"])
        span_count = _traced_run()  # warm both paths
        off, on, ratio = paired_comparison(
            ("analog_mvm_tracing_disabled", _untraced_run),
            ("analog_mvm_tracing_enabled", _traced_run),
            ops, pairs=PAIRS,
        )                             # ratio > 1 means traced was faster
        enabled_overhead = max(0.0, 1.0 - ratio)

        benchmark(_untraced_run)

        # Disabled path: per-site no-op cost x sites hit per run,
        # relative to the untraced runtime.  The traced record count
        # equals the instrumentation sites executed (adopted spans
        # included, which only overestimates -- fine for an upper
        # bound).
        noop_seconds = _noop_span_seconds()
        disabled_overhead = span_count * noop_seconds / off.seconds

        write_bench_json(
            bench_dir / "BENCH_obs.json",
            [off, on],
            speedups={"traced_vs_untraced": ratio},
            extra={
                "spans_per_run": span_count,
                "noop_span_nanoseconds": noop_seconds * 1e9,
                "disabled_overhead_estimate": disabled_overhead,
                "enabled_overhead": enabled_overhead,
            },
        )
        text = (
            f"telemetry overhead bench (analog_mvm, rows={SIZE}, "
            f"items={ITEMS}, B={BATCH})\n"
            f"tracing disabled:   {off.ops_per_second:.3e} adc-conv/s\n"
            f"tracing enabled:    {on.ops_per_second:.3e} adc-conv/s "
            f"({span_count} spans/run)\n"
            f"enabled/disabled:   {ratio:.4f} (overhead "
            f"{enabled_overhead:.2%}, bar {MAX_ENABLED_OVERHEAD:.0%}; "
            f"median of {PAIRS} paired runs)\n"
            f"no-op span site:    {noop_seconds * 1e9:.0f} ns -> "
            f"disabled-path estimate {disabled_overhead:.3%} of the "
            f"run (bar {MAX_DISABLED_OVERHEAD:.0%})"
        )
        save_report("obs_overhead", text)

        assert enabled_overhead < MAX_ENABLED_OVERHEAD, (
            f"active tracer adds {enabled_overhead:.2%} on the ideal "
            f"path (bar {MAX_ENABLED_OVERHEAD:.0%}); off="
            f"{off.ops_per_second:.3e} on={on.ops_per_second:.3e}"
        )
        assert disabled_overhead <= MAX_DISABLED_OVERHEAD, (
            f"disabled span sites cost an estimated "
            f"{disabled_overhead:.3%} of the run "
            f"(bar {MAX_DISABLED_OVERHEAD:.0%}; "
            f"{span_count} sites x {noop_seconds * 1e9:.0f} ns)"
        )
