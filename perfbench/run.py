#!/usr/bin/env python3
"""The repository benchmark: four workloads, each dominated by the layer
it names, plus a traced run per workload that splits an op by layer.

Run from the repository root::

    python3 perfbench/run.py --workload mvp_query --seed 1 --trace 0
    python3 perfbench/run.py --seed 1      # every workload, both modes

A single-workload run ends with one JSON line holding ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The metric
names and units, and the default ``--seconds``, come from
``BENCHMARK.json``.  See ``perfbench/README.md`` for the workloads and
what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from measure import (PeakRss, at_reference_speed, finite, host_probe,
                     median, percentile)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Run-time files (the served workload's result cache) live here.
RUNTIME_DIR = ROOT / ".perfbench_run"
#: Fresh interpreters started per run to time set-up; the median counts.
SETUP_PROBES = 3
#: A p90 needs this many samples to have ten beyond it.
P90_SAMPLES = 100


def catalogue() -> dict:
    """``BENCHMARK.json``: the one list of workload names, metric names
    and units, and the run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_harness():
    """Import the workloads against this checkout's own sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import harness
    return harness


def workdir() -> Path:
    RUNTIME_DIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=RUNTIME_DIR))


def setup_times(args) -> list[float]:
    """Seconds from interpreter start to ready-for-the-first-timed-op.

    Each probe is a fresh interpreter that imports the program, starts
    the workload (pool, service, empty cache) and runs its warm-up
    canary op, then reports ready and shuts down.  Each time is given at
    the reference host speed (see :func:`measure.at_reference_speed`),
    with the host probed just before and just after the interpreter.
    """
    samples = []
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-probe"]
    for _ in range(SETUP_PROBES):
        before = host_probe()
        started = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - started
            child.stdout.read()
            code = child.wait(timeout=120)
        if code != 0 or not line.startswith("ready"):
            sys.exit("perfbench: set-up probe failed")
        samples.append(at_reference_speed(
            elapsed, (before + host_probe()) / 2))
    return samples


def setup_probe(args) -> None:
    harness = load_harness()
    directory = workdir()
    try:
        workload = harness.WORKLOADS[args.workload](args.seed, directory)
        workload.start()
        print("ready", flush=True)
        workload.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def run_workload(args, bench: dict) -> int:
    harness = load_harness()
    setup = [] if args.trace else setup_times(args)
    directory = workdir()
    try:
        with PeakRss() as rss:
            workload = harness.WORKLOADS[args.workload](args.seed, directory)
            workload.start()
            try:
                if args.trace:
                    measured = workload.traced(args.seconds)
                else:
                    timing = workload.timed(args.seconds)
            finally:
                workload.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{workload.failed} failed of {workload.attempted} attempted ops "
          f"(canary included); {workload.repeats} of {workload.ops} op "
          f"inputs repeat an earlier one")
    if args.trace:
        values = dict.fromkeys((m["name"] for m in bench["per_layer"]), 0.0)
        values.update(measured)
        metrics = report(bench["per_layer"], values)
        coverage = measured["trace.coverage_pct"]
        if coverage < harness.MIN_COVERAGE_PCT:
            print(f"perfbench: named layer calls cover {coverage:.1f}% of "
                  f"the traced op, under {harness.MIN_COVERAGE_PCT:.0f}%",
                  file=sys.stderr)
            return 1
    else:
        metrics = report(bench["end_to_end"],
                         end_to_end_values(timing, setup, rss))
    print(json.dumps({
        "correct": workload.correct,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }))
    return 0


def end_to_end_values(timing, setup: list[float], rss) -> dict:
    """The end-to-end metrics of one timed run.

    Every op's time is given at the reference host speed, using the host
    probe that goes with it (see :func:`measure.at_reference_speed`).
    Closed loops count runs per second of that op time; the open loop,
    whose ops arrive on a wall-clock schedule, counts runs per wall
    second.
    """
    latencies = [at_reference_speed(latency, probe) for latency, probe
                 in zip(timing.latencies, timing.probes)]
    if timing.open_loop:
        runs_per_s = sum(timing.runs) / timing.elapsed
    else:
        runs_per_s = sum(timing.runs) / sum(latencies)
    print(f"  host probe median {1e3 * median(timing.probes):.3f} ms; "
          f"raw op p50 {1e3 * percentile(timing.latencies, 0.5):.1f} ms, "
          f"p90 {1e3 * percentile(timing.latencies, 0.9):.1f} ms")
    values = {
        "runs_per_s": runs_per_s,
        "latency_p50_ms": 1e3 * finite(percentile(latencies, 0.5)),
        "latency_p90_ms": 1e3 * finite(percentile(latencies, 0.9)),
        "setup_s": median(setup),
        "peak_rss_mb": rss.megabytes,
    }
    print(f"  {len(latencies)} ops, {sum(timing.runs)} runs in "
          f"{timing.elapsed:.2f} s; set-up probes "
          + ", ".join(f"{s:.3f}" for s in setup) + " s")
    if len(latencies) < P90_SAMPLES:
        print(f"  warning: fewer than {P90_SAMPLES} samples; the p90 has "
              "fewer than ten beyond it", file=sys.stderr)
    return values


def report(catalogue: list[dict], values: dict[str, float]) -> dict:
    """Each value with its unit from ``BENCHMARK.json``, printed by name.

    A measured value that ``BENCHMARK.json`` does not name, or a name
    there without a value, stops the run.
    """
    units = {metric["name"]: metric["unit"] for metric in catalogue}
    if set(values) != set(units):
        sys.exit("perfbench: measured metrics differ from BENCHMARK.json: "
                 + ", ".join(sorted(set(values) ^ set(units))))
    metrics = {}
    for name, unit in units.items():
        value = finite(values[name])
        metrics[name] = {"value": value, "unit": unit}
        label = name + ("  (uncovered rest)" if name == "api.facade_ms"
                        else "")
        print(f"  {label:<48} {value:>14.4f} {unit}")
    return metrics


def run_all(args, workloads: list[str]) -> int:
    """Every workload, timed then traced, each in its own process."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=600)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if done.returncode != 0 or not lines:
                print(f"perfbench: {name} trace={trace} exited "
                      f"{done.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, value in result["metrics"].items():
                metrics[f"{name}.{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def print_digests(args) -> int:
    """Digest of each workload's canary op, for ``digests.json``."""
    harness = load_harness()
    digests = {}
    for name, cls in harness.WORKLOADS.items():
        directory = workdir()
        try:
            workload = cls(args.seed, directory)
            workload.start()
            workload.close()
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        digests[name] = workload.canary_digest
    print(json.dumps(digests, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    bench = catalogue()
    workloads = [workload["name"] for workload in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads, "all"),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--print-digests", action="store_true",
                        help="print the canary digests to pin in "
                             "perfbench/digests.json")
    args = parser.parse_args(argv)
    if args.print_digests:
        return print_digests(args)
    if args.workload == "all":
        if args.setup_probe:
            parser.error("--setup-probe needs one workload")
        return run_all(args, workloads)
    if args.setup_probe:
        setup_probe(args)
        return 0
    return run_workload(args, bench)


if __name__ == "__main__":
    sys.exit(main())
