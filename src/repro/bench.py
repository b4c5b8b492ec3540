"""Throughput measurement harness for the batch execution engine.

The paper's bottom line is ops/sec: computation-in-memory wins by
amortizing each control action over many data elements, and the batch
layer extends that over many concurrent workloads.  This module provides
the small, dependency-free pieces the throughput benches share:

* :func:`measure_throughput` -- wall-clock a workload callable and
  normalize to operations per second (best-of-N to suppress scheduler
  noise);
* :func:`speedup` -- ratio of two measurements;
* :func:`paired_comparison` -- the throughput ratio of two code paths
  as the median of back-to-back paired timings (overhead benches);
* :func:`write_bench_json` -- persist a machine-readable ``BENCH_*.json``
  record (the perf trajectory consumed by CI and future sessions);
* :func:`smoke_mode` -- honour the ``REPRO_BENCH_SMOKE`` environment
  variable so CI can run the benches on shrunken workloads;
* :func:`write_mode` -- honour ``REPRO_BENCH_WRITE``: only then do the
  benches rewrite the tracked ``BENCH_*.json`` and ``results/*`` files.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
import time
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "SMOKE_ENV",
    "ThroughputResult",
    "WRITE_ENV",
    "available_cpus",
    "measure_throughput",
    "paired_comparison",
    "round_sig",
    "smoke_mode",
    "speedup",
    "write_bench_json",
    "write_mode",
]

SMOKE_ENV = "REPRO_BENCH_SMOKE"
WRITE_ENV = "REPRO_BENCH_WRITE"


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip() not in ("", "0", "false")


def smoke_mode() -> bool:
    """True when benches should run shrunken workloads (CI smoke runs)."""
    return _env_flag(SMOKE_ENV)


def write_mode() -> bool:
    """True when benches should rewrite the repo's tracked records.

    Off by default, so a test run leaves ``BENCH_*.json`` and
    ``results/*`` as they are; set ``REPRO_BENCH_WRITE=1`` for a
    deliberate re-baseline.
    """
    return _env_flag(WRITE_ENV)


@dataclasses.dataclass(frozen=True)
class ThroughputResult:
    """One timed workload, normalized to operations per second.

    Attributes:
        name: workload identifier (stable across sessions; used as the
            JSON key of the perf trajectory).
        ops: logical operations serviced by one workload call.
        seconds: wall-clock time of one call, seconds: the best of the
            repeats, or their median for a :func:`paired_comparison`.
        ops_per_second: ``ops / seconds``.
        repeats: timed calls taken.
    """

    name: str
    ops: int
    seconds: float
    ops_per_second: float
    repeats: int

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def measure_throughput(
    name: str,
    fn: Callable[[], object],
    ops: int,
    repeats: int = 3,
) -> ThroughputResult:
    """Time ``fn`` and normalize to ops/sec (best of ``repeats`` calls).

    Args:
        name: workload identifier for reports.
        fn: zero-argument callable executing the whole workload,
            including any per-call setup the workload realistically pays.
        ops: logical operations one call completes.
        repeats: timed calls; the fastest is reported (the standard
            micro-benchmark practice: minima estimate the noise floor).

    Returns:
        The measured :class:`ThroughputResult`.
    """
    if ops < 1:
        raise ValueError("ops must be positive")
    if repeats < 1:
        raise ValueError("repeats must be positive")
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        best = min(best, elapsed)
    best = max(best, 1e-12)  # degenerate clock resolution guard
    return ThroughputResult(
        name=name,
        ops=ops,
        seconds=best,
        ops_per_second=ops / best,
        repeats=repeats,
    )


def speedup(batched: ThroughputResult, looped: ThroughputResult) -> float:
    """Throughput ratio of the batched path over the looped baseline."""
    return batched.ops_per_second / looped.ops_per_second


def paired_comparison(
    baseline: tuple[str, Callable[[], object]],
    candidate: tuple[str, Callable[[], object]],
    ops: int,
    pairs: int = 30,
) -> tuple[ThroughputResult, ThroughputResult, float]:
    """Throughput of two code paths doing the same work, timed in pairs.

    Each pair times both callables back to back, alternating which one
    runs first, and yields the ratio ``baseline_time / candidate_time``.
    The median of those ratios estimates the candidate's relative
    throughput: machine drift slower than one pair cancels inside each
    ratio, and single stalls land in the tails the median ignores.
    Best-of-N minima cancel neither; on a shared host they read a few
    percent either way when two paths cost the same.  The second call
    of a pair tends to run slower, so an even ``pairs`` (each order
    equally often) keeps that from biasing the median.

    Args:
        baseline: ``(name, fn)`` of the reference path.
        candidate: ``(name, fn)`` of the path under test.
        ops: logical operations one call of either path completes.
        pairs: paired timings taken.

    Returns:
        ``(baseline_result, candidate_result, ratio)``: each result
        holds its path's median call time; ``ratio`` is the median
        paired ratio (> 1 means the candidate was faster).
    """
    if ops < 1:
        raise ValueError("ops must be positive")
    if pairs < 1:
        raise ValueError("pairs must be positive")
    base_times: list[float] = []
    cand_times: list[float] = []
    for pair in range(pairs):
        runs = [(baseline[1], base_times), (candidate[1], cand_times)]
        if pair % 2:
            runs.reverse()
        for fn, samples in runs:
            t0 = time.perf_counter()
            fn()
            samples.append(max(time.perf_counter() - t0, 1e-12))
    ratio = float(np.median(np.array(base_times) / np.array(cand_times)))

    def result(name: str, samples: list[float]) -> ThroughputResult:
        seconds = float(np.median(samples))
        return ThroughputResult(name=name, ops=ops, seconds=seconds,
                                ops_per_second=ops / seconds,
                                repeats=pairs)

    return (result(baseline[0], base_times),
            result(candidate[0], cand_times), ratio)


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware).

    The honest denominator for parallel-scaling claims: a 4-worker pool
    on a 1-CPU container cannot speed anything up, and the parallel
    bench records this number so its JSON is interpretable on any
    machine.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def round_sig(value: float, digits: int = 4) -> float:
    """Round to ``digits`` significant digits.

    The drift damper for persisted bench records: raw
    ``perf_counter`` rates differ in every run's low digits, so a
    regenerated ``BENCH_*.json`` would otherwise diff on every line.
    Four significant digits keep the measurement honest (sub-0.1%
    resolution) while making re-runs on comparable hardware mostly
    byte-stable.
    """
    if value == 0 or not math.isfinite(value):
        return value
    return float(f"{value:.{digits}g}")


def _rounded(obj):
    """``obj`` with every float rounded to 4 significant digits."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return round_sig(obj)
    if isinstance(obj, dict):
        return {key: _rounded(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(value) for value in obj]
    return obj


def write_bench_json(
    path: str | Path,
    results: Sequence[ThroughputResult],
    speedups: dict[str, float] | None = None,
    extra: dict[str, object] | None = None,
) -> Path:
    """Persist bench results as a machine-readable JSON record.

    Keys are sorted and every recorded rate is rounded to 4
    significant digits (:func:`round_sig`), so regenerating a record
    produces minimal diffs.

    Args:
        path: output file (parents are created).
        results: measured workloads.
        speedups: named throughput ratios derived from ``results``.
        extra: additional scalar context recorded alongside the
            measurements (worker counts, CPU budget, workload sizes).

    Returns:
        The written path.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": "repro-bench-v1",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": available_cpus(),
        "smoke": smoke_mode(),
        "results": [_rounded(r.as_dict()) for r in results],
        "speedups": _rounded(dict(speedups or {})),
    }
    if extra:
        payload["extra"] = _rounded(dict(extra))
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
