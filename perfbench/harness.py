"""The benchmark's four workloads, their checks and their traced replays.

Every workload drives the program through its public API only:

* ``mvp_query``  -- closed loop, in-process ``Engine.run`` of the MVP
  bitmap query (``mvp_batched`` / ``database``);
* ``ap_scan``    -- closed loop, in-process ``Engine.run`` of the RRAM
  automata processor (``rram_ap`` / ``networking``);
* ``fault_sweep`` -- closed loop, one ``SweepRunner(workers=2).run_grid``
  over a fault-rate x variability grid of ``analog_mvm`` cells;
* ``served_mlp`` -- open loop, Poisson arrivals into a fresh
  ``Service(workers=2)`` with an empty result cache.

Each op gets a spec seed of its own, drawn from the workload seed, so no
op repeats an earlier input except the one in eight ``served_mlp``
requests that repeats a recent request on purpose.

Traced runs split an op by layer from the outside: the benchmark calls
the layers' public functions itself (the same calls ``Engine.run``
makes through the engine's ``execute_window`` hook) and times each one
with :class:`measure.LayerTimer`.  Nothing inside the program is
changed; the program's own spans are recorded by activating its tracer.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import random
import shutil
import tempfile
import time
from pathlib import Path

import repro.api.engines as engines_module
from repro.api.engines import Engine
from repro.api.result import RunResult, jsonify
from repro.api.spec import ScenarioSpec
from repro.api.workloads import adapter_for
from repro.obs.trace import Tracer, traced
from repro.parallel.sweep import SweepRunner
from repro.serving import Service, ServiceOverloaded

from measure import (LayerTimer, host_probe, median, mixed_probe,
                     percentile)

#: Digests of each workload's canary op (see :func:`digest`).
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

#: Spec seed of the canary op; timed ops draw seeds >= 1.
CANARY_SEED = 0

MVP_QUERY = dict(engine="mvp_batched", workload="database",
                 size=2048, items=4, batch=16)
AP_SCAN = dict(engine="rram_ap", workload="networking",
               size=256, items=8, batch=16)
FAULT_SWEEP = dict(engine="analog_mvm", workload="mlp_inference",
                   size=32, items=16, batch=4)
SWEEP_AXES = {"fault_rate": [0.0, 0.01, 0.05, 0.1],
              "variability_sigma": [0.0, 0.05]}
SWEEP_WORKERS = 2
SERVED_MLP = dict(engine="analog_mvm", workload="mlp_inference",
                  size=128, items=16, batch=16)
#: Offered load (requests/s).  On a host running 1.7x slower than the
#: reference speed, one request holds a worker for about 110 ms, so each
#: of the parent commit's two workers is about 17% busy.  Few requests
#: then wait for a worker or a coalesced companion, and the p90 stays in
#: the main body of the latency distribution.  At 5 and 8 req/s a tenth
#: and a fifth of the requests waited, the p90 fell between the two
#: modes or inside the second, and its spread over seeds was 0.19-0.23.
SERVED_RATE = 3.0
#: One request in this many repeats a recent request exactly.
REPEAT_EVERY = 8
SERVED_WORKERS = 2
#: The open loop probes the host speed while no request is in flight and
#: the next one is due at least PROBE_GAP seconds later, at most once per
#: PROBE_EVERY seconds.
PROBE_GAP = 0.02
PROBE_EVERY = 0.05
#: Each open-loop request goes with the median of this many probes, the
#: ones taken nearest in time to it.
NEAREST_PROBES = 15

#: Named layer calls must cover at least this share of a traced op; a
#: traced run under it fails.
MIN_COVERAGE_PCT = 90.0

#: Layer-timer keys billed by the traced replays; each becomes the
#: ``<key>_ms`` per-layer metric.
_TIMED_LAYERS = (
    "workloads.prepare", "workloads.golden", "crossbar.build",
    "crossbar.probe", "mvp.execute", "automata.compile",
    "rram_ap.configure", "rram_ap.run", "mvm.map", "mvm.kernel",
)

#: Throughput metrics: (metric, cost counter, layer whose time divides it).
_RATES = (
    ("mvp.bit_ops_per_s", "bit_operations", "mvp.execute"),
    ("rram_ap.symbols_per_s", "symbols", "rram_ap.run"),
    ("mvm.adc_conversions_per_s", "adc_conversions", "mvm.kernel"),
)


class Seeds:
    """Fresh spec seeds for one run, all derived from the workload seed."""

    def __init__(self, workload: str, seed: int) -> None:
        self.rng = random.Random(f"{workload}/{seed}")
        self._used = {CANARY_SEED}

    def fresh(self) -> int:
        while True:
            seed = self.rng.randrange(1, 2 ** 31)
            if seed not in self._used:
                self._used.add(seed)
                return seed


# -- correctness ---------------------------------------------------------------


def ledgers_ok(result: RunResult) -> bool:
    """Every simulated ledger of ``result`` is finite and non-negative."""
    for cost in (result.cost, *result.item_costs):
        values = [cost.energy_joules, cost.latency_seconds, cost.area_mm2,
                  *cost.counters.values()]
        if not all(math.isfinite(v) and v >= 0 for v in values):
            return False
    return True


def healthy(result: RunResult) -> bool:
    """The CLI's exit rule plus finite ledgers.

    Ideal runs must pass their golden check; runs with injected
    nonidealities measure degradation, so a golden mismatch there is
    data, and they are healthy once they complete.
    """
    ok = result.ok or result.fidelity is not None
    return ok and ledgers_ok(result)


def _ledger(cost) -> dict:
    return {
        "energy_joules": cost.energy_joules,
        "latency_seconds": cost.latency_seconds,
        "area_mm2": cost.area_mm2,
        "counters": jsonify(dict(cost.counters)),
    }


def digest(results) -> str:
    """SHA-256 of the simulated outputs and ledgers of ``results``.

    Host timings and provenance are left out: a change that only speeds
    up the simulator must leave this digest unchanged.
    """
    record = [
        {
            "outputs": jsonify(r.outputs),
            "cost": _ledger(r.cost),
            "item_costs": [_ledger(c) for c in r.item_costs],
            "fidelity": None if r.fidelity is None else r.fidelity.to_dict(),
            "accuracy": None if r.accuracy is None else r.accuracy.to_dict(),
        }
        for r in results
    ]
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def pinned_digests() -> dict[str, str]:
    try:
        return json.loads(DIGESTS_PATH.read_text())
    except (OSError, ValueError):
        return {}


# -- the traced replay -----------------------------------------------------------


def replay(spec: ScenarioSpec, timer: LayerTimer) -> RunResult:
    """Run ``spec`` through its layers' public calls, timing each one.

    The same calls ``Engine.run`` makes for a shardable engine --
    resolve, ``execute_window``, ``aggregate_cost`` -- with lazy workload
    preparation forced up front so that it is billed to ``workloads``
    rather than to the fabric build that would otherwise trigger it.
    """
    engine = Engine.from_spec(spec)
    adapter = adapter_for(spec, engine.name)
    engine.check_params(adapter)
    _INSTRUMENT[engine.name](engine, adapter, timer)
    probe = engines_module.probe_read_fidelity
    engines_module.probe_read_fidelity = timer.wrap("crossbar.probe", probe)
    try:
        outputs, base, item_costs = engine.execute_window(adapter)
    finally:
        engines_module.probe_read_fidelity = probe
    return RunResult(
        spec=spec,
        outputs=outputs,
        cost=engine.aggregate_cost(base, item_costs),
        item_costs=tuple(item_costs),
        fidelity=engine.window_fidelity(),
        accuracy=engine.window_accuracy(),
    )


def _instrument_mvp(engine, adapter, timer: LayerTimer) -> None:
    timer.call("workloads.prepare", adapter.mvp_programs)
    engine.build_fabric = timer.wrap("crossbar.build", engine.build_fabric)
    adapter.run_mvp_batched = timer.wrap("mvp.execute",
                                         adapter.run_mvp_batched)


def _instrument_ap(engine, adapter, timer: LayerTimer) -> None:
    adapter.streams = timer.wrap("workloads.prepare", adapter.streams)
    adapter.build_automaton = timer.wrap("automata.compile",
                                         adapter.build_automaton)
    adapter.check_ap = timer.wrap("workloads.golden", adapter.check_ap)
    build = engine.build_fabric

    def configure(adapter_):
        processor = build(adapter_)
        processor.run_batch = timer.wrap("rram_ap.run", processor.run_batch)
        return processor

    engine.build_fabric = timer.wrap("rram_ap.configure", configure)


def _instrument_analog(engine, adapter, timer: LayerTimer) -> None:
    timer.call("workloads.prepare", lambda: [
        adapter.mvm_layers(index) for index in adapter.batch_indices])
    engine.build_fabric = timer.wrap("mvm.map", engine.build_fabric)
    adapter.run_analog_window = timer.wrap("mvm.kernel",
                                           adapter.run_analog_window)


_INSTRUMENT = {
    "mvp_batched": _instrument_mvp,
    "rram_ap": _instrument_ap,
    "analog_mvm": _instrument_analog,
}


class TracedOp:
    """One traced op: its wall time and the self time of each layer."""

    def __init__(self, wall: float, layers: dict[str, float],
                 counters: dict[str, int]) -> None:
        self.wall = wall
        self.layers = layers
        self.counters = counters

    @property
    def covered(self) -> float:
        return sum(self.layers.values())


def traced_replay(spec: ScenarioSpec) -> tuple[RunResult, TracedOp]:
    timer = LayerTimer()
    started = time.perf_counter()
    with traced(Tracer()):
        result = replay(spec, timer)
    wall = time.perf_counter() - started
    return result, TracedOp(wall, dict(timer.totals),
                            dict(result.cost.counters))


def layer_metrics(ops: list[TracedOp]) -> dict[str, float]:
    """Median per-op layer times (ms), counter rates and coverage over
    ``ops``.

    ``api.facade_ms`` is the uncovered rest of an op: its wall time less
    its named layer calls.  ``trace.coverage_pct`` is the share of the
    op those calls cover; only directly timed calls count, never a
    layer worked out as a difference of two timings.
    """
    metrics = {
        f"{layer}_ms": 1e3 * median([op.layers.get(layer, 0.0)
                                     for op in ops])
        for layer in _TIMED_LAYERS
    }
    for name, counter, layer in _RATES:
        busy = sum(op.layers.get(layer, 0.0) for op in ops)
        work = sum(op.counters.get(counter, 0) for op in ops)
        metrics[name] = work / busy if busy > 0 else 0.0
    metrics["api.facade_ms"] = 1e3 * median(
        [op.wall - op.covered for op in ops])
    metrics["trace.coverage_pct"] = 100 * median(
        [op.covered / op.wall for op in ops])
    return metrics


# -- workloads -------------------------------------------------------------------


def nearest_probe(probes: list[tuple[float, float]], at: float) -> float:
    """Median of the :data:`NEAREST_PROBES` ``(time, probe)`` pairs
    nearest in time to ``at``."""
    nearest = sorted(probes, key=lambda pair: abs(pair[0] - at))
    return median([probe for _, probe in nearest[:NEAREST_PROBES]])


class Timing:
    """What a timed run measured, one entry per op.

    ``probes`` holds the host probe time (see :func:`measure.host_probe`)
    that goes with each op.  ``open_loop`` marks a run whose ops arrive
    on a schedule rather than one after another.
    """

    def __init__(self, latencies: list[float], runs: list[int],
                 elapsed: float, probes: list[float],
                 open_loop: bool = False) -> None:
        self.latencies = latencies
        self.runs = runs
        self.elapsed = elapsed
        self.probes = probes
        self.open_loop = open_loop


class Workload:
    """Shared bookkeeping: op tally, canary check, closed loop.

    Args:
        seed: the workload seed; every spec seed and arrival time of the
            run derives from it.
        workdir: a private directory inside the checkout for run-time
            files (the served workload's result cache).
    """

    name = ""
    shape: dict = {}

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seeds = Seeds(self.name, seed)
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.ops = 0
        self.repeats = 0
        self._inputs: set[str] = set()
        self.canary_digest: str | None = None

    @property
    def correct(self) -> bool:
        return self.wrong == 0

    def record(self, ok: bool, refused: bool = False) -> None:
        """Tally one op; a refused request fails without being wrong."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not refused:
                self.wrong += 1

    def note_input(self, spec: ScenarioSpec) -> None:
        key = spec.canonical_hash()
        self.ops += 1
        if key in self._inputs:
            self.repeats += 1
        self._inputs.add(key)

    def spec(self, seed: int) -> ScenarioSpec:
        return ScenarioSpec(seed=seed, **self.shape)

    def check_canary(self, results) -> bool:
        """Record the canary op: healthy and equal to its pinned digest."""
        self.canary_digest = digest(results)
        ok = (all(healthy(r) for r in results)
              and self.canary_digest == pinned_digests().get(self.name))
        self.record(ok)
        return ok

    def start(self) -> None:
        try:
            results = self.canary()
        except Exception:  # noqa: BLE001 -- a failed canary is a failed op
            self.record(False)
            return
        self.check_canary(results)

    def close(self) -> None:
        pass

    def canary(self) -> list[RunResult]:
        return self.op(self.spec(CANARY_SEED))

    def op(self, spec: ScenarioSpec) -> list[RunResult]:
        return [Engine.from_spec(spec).run()]

    def safe_op(self, spec: ScenarioSpec,
                run=None) -> tuple[float, list[RunResult]]:
        """Time one op (``run``, default :meth:`op`) and tally it; a
        raised error is a failed op."""
        self.note_input(spec)
        started = time.perf_counter()
        try:
            results = (run or self.op)(spec)
        except Exception:  # noqa: BLE001 -- counted, the loop goes on
            self.record(False)
            return math.inf, []
        elapsed = time.perf_counter() - started
        self.record(all(healthy(r) for r in results))
        return elapsed, results

    def timed(self, seconds: float) -> Timing:
        """Closed loop, one client: the next op starts when one ends."""
        latencies: list[float] = []
        runs: list[int] = []
        probes: list[float] = []
        started = time.perf_counter()
        deadline = started + seconds
        before = host_probe()
        while time.perf_counter() < deadline:
            elapsed, results = self.safe_op(self.spec(self.seeds.fresh()))
            after = host_probe()
            latencies.append(elapsed)
            runs.append(len(results))
            probes.append((before + after) / 2)
            before = after
        return Timing(latencies, runs, time.perf_counter() - started, probes)

    def traced(self, seconds: float) -> dict[str, float]:
        """Alternate plain and traced ops; per-layer metrics of the latter.

        The traced replay of the canary spec must match the pinned
        digest too, which proves the replay computes what ``Engine.run``
        computes.
        """
        result, _ = traced_replay(self.spec(CANARY_SEED))
        self.check_canary([result])
        plain: list[float] = []
        ops: list[TracedOp] = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            elapsed, _ = self.safe_op(self.spec(self.seeds.fresh()))
            plain.append(elapsed)
            spec = self.spec(self.seeds.fresh())
            self.note_input(spec)
            result, op = traced_replay(spec)
            self.record(healthy(result))
            ops.append(op)
        metrics = layer_metrics(ops)
        metrics["obs.trace_overhead_pct"] = 100 * (
            median([op.wall for op in ops]) / median(plain) - 1)
        metrics["loadgen.repeat_share"] = self.repeats / self.ops
        return metrics


class MvpQuery(Workload):
    name = "mvp_query"
    shape = MVP_QUERY


class ApScan(Workload):
    name = "ap_scan"
    shape = AP_SCAN


class FaultSweep(Workload):
    name = "fault_sweep"
    shape = FAULT_SWEEP

    def start(self) -> None:
        self.runner = SweepRunner(workers=SWEEP_WORKERS)
        super().start()

    def op(self, spec: ScenarioSpec) -> list[RunResult]:
        _, results = self.runner.run_grid(spec, SWEEP_AXES)
        return results

    def traced(self, seconds: float) -> dict[str, float]:
        """Traced sweeps, each followed by an in-process replay of its cells.

        The layer times, and the coverage of the replay, are summed over
        an op's cells.  ``parallel.fanout_overhead_ms`` is the sweep's
        wall time minus the replayed cells' in-process time shared over
        the workers.
        """
        plain: list[float] = []
        sweeps: list[float] = []
        ops: list[TracedOp] = []
        fanout: list[float] = []
        map_share: list[float] = []
        deadline = time.perf_counter() + seconds
        first = True
        while time.perf_counter() < deadline:
            elapsed, _ = self.safe_op(self.spec(self.seeds.fresh()))
            plain.append(elapsed)
            spec = self.spec(CANARY_SEED if first
                             else self.seeds.fresh())
            self.note_input(spec)
            started = time.perf_counter()
            with traced(Tracer()):
                results = self.op(spec)
            wall = time.perf_counter() - started
            cells = [traced_replay(r.spec) for r in results]
            ok = (all(healthy(r) for r in results)
                  and all(digest([r]) == digest([c])
                          for r, (c, _) in zip(results, cells)))
            if first:
                # The canary sweep doubles as the replay's digest proof.
                ok = ok and digest(results) == \
                    pinned_digests().get(self.name)
                first = False
            self.record(ok)
            in_process = sum(op.wall for _, op in cells)
            layers: dict[str, float] = {}
            counters: dict[str, int] = {}
            for _, op in cells:
                for key, value in op.layers.items():
                    layers[key] = layers.get(key, 0.0) + value
                for key, value in op.counters.items():
                    counters[key] = counters.get(key, 0) + value
            ops.append(TracedOp(in_process, layers, counters))
            sweeps.append(wall)
            fanout.append(wall - in_process / SWEEP_WORKERS)
            nonideal = [(r, op) for r, (_, op) in zip(results, cells)
                        if not r.spec.nonideality.is_default()]
            map_share.append(
                sum(op.layers.get("mvm.map", 0.0) for _, op in nonideal)
                / sum(op.wall for _, op in nonideal))
        metrics = layer_metrics(ops)
        metrics["parallel.fanout_overhead_ms"] = 1e3 * median(fanout)
        metrics["mvm.map_nonideal_pct"] = 100 * median(map_share)
        metrics["obs.trace_overhead_pct"] = 100 * (
            median(sweeps) / median(plain) - 1)
        metrics["loadgen.repeat_share"] = self.repeats / self.ops
        return metrics


class _Outcome:
    __slots__ = ("spec", "latency", "done_at", "result", "refused")

    def __init__(self, spec, latency, done_at, result, refused) -> None:
        self.spec = spec
        self.latency = latency
        self.done_at = done_at
        self.result = result
        self.refused = refused


class ServedMlp(Workload):
    name = "served_mlp"
    shape = SERVED_MLP

    def start(self) -> None:
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
        self.loop = asyncio.new_event_loop()
        self.service = Service(workers=SERVED_WORKERS, cache=self.cache_dir)
        self.service.start()
        self.late: list[float] = []
        super().start()

    def close(self) -> None:
        self.loop.run_until_complete(self.service.close())
        self.loop.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def op(self, spec: ScenarioSpec) -> list[RunResult]:
        """One request submitted alone (canary and one-at-a-time probes)."""
        return [self.loop.run_until_complete(self.service.submit(spec))]

    def request_specs(self, count: int) -> list[ScenarioSpec]:
        """Fresh specs, except one in ``REPEAT_EVERY`` repeats one of the
        three requests before it exactly."""
        rng = self.seeds.rng
        repeat_at = set(rng.sample(range(1, count), count // REPEAT_EVERY)) \
            if count > 1 else set()
        specs: list[ScenarioSpec] = []
        for index in range(count):
            if index in repeat_at:
                specs.append(specs[index - rng.randint(1, min(3, index))])
            else:
                specs.append(self.spec(self.seeds.fresh()))
        return specs

    def timed(self, seconds: float) -> Timing:
        return self.loop.run_until_complete(self._open_loop(seconds))

    async def _open_loop(self, seconds: float) -> Timing:
        """Seeded Poisson arrivals at ``SERVED_RATE``, timed from due time.

        The arrival count is fixed by the rate and duration and the
        arrival instants are uniform order statistics over the window --
        a Poisson process conditioned on its count.

        While no request is in flight, the gaps between arrivals are
        used to probe the host speed (:func:`measure.mixed_probe`), so a
        probe delays no request.  Every request goes with the median of
        the probes nearest in time to it: the host slows for seconds at
        a time, and the slowest stretch of a run sets its p90.
        """
        loop = asyncio.get_running_loop()
        count = max(1, round(SERVED_RATE * seconds))
        offsets = sorted(self.seeds.rng.uniform(0, seconds)
                         for _ in range(count))
        specs = self.request_specs(count)
        probed_at = loop.time()
        probes = [(probed_at, mixed_probe())]
        start = probed_at + PROBE_GAP
        tasks = []
        in_flight: set[asyncio.Task] = set()
        for offset, spec in zip(offsets, specs):
            due = start + offset
            while (gap := due - loop.time() - PROBE_GAP) > 0:
                if in_flight:
                    await asyncio.wait(set(in_flight), timeout=gap)
                elif (wait := probed_at + PROBE_EVERY - loop.time()) > 0:
                    await asyncio.sleep(min(wait, gap))
                else:
                    probed_at = loop.time()
                    probes.append((probed_at, mixed_probe()))
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            self.late.append(loop.time() - due)
            task = loop.create_task(self._request(spec, due))
            in_flight.add(task)
            task.add_done_callback(in_flight.discard)
            tasks.append(task)
        outcomes = await asyncio.gather(*tasks)
        self._check_outcomes(outcomes)
        completed = [o for o in outcomes if o.result is not None]
        finished = max((o.done_at for o in completed), default=loop.time())
        return Timing([o.latency for o in outcomes],
                      [int(o.result is not None) for o in outcomes],
                      finished - start,
                      [nearest_probe(probes, start + offset)
                       for offset in offsets],
                      open_loop=True)

    async def _request(self, spec: ScenarioSpec, due: float) -> _Outcome:
        loop = asyncio.get_running_loop()
        try:
            result = await self.service.submit(spec)
        except ServiceOverloaded:
            return _Outcome(spec, math.inf, loop.time(), None, True)
        except Exception:  # noqa: BLE001 -- counted as a failed request
            return _Outcome(spec, math.inf, loop.time(), None, False)
        now = loop.time()
        return _Outcome(spec, now - due, now, result, False)

    def _check_outcomes(self, outcomes: list[_Outcome]) -> None:
        """Tally requests; a repeat must return its original's result."""
        first_digest: dict[str, str] = {}
        for outcome in outcomes:
            self.note_input(outcome.spec)
            result = outcome.result
            if result is None:
                self.record(False, refused=outcome.refused)
                continue
            key = outcome.spec.canonical_hash()
            seen = first_digest.setdefault(key, digest([result]))
            self.record(healthy(result) and result.spec == outcome.spec
                        and digest([result]) == seen)

    def traced(self, seconds: float) -> dict[str, float]:
        """Open loop for half the time, then one request at a time.

        The one-at-a-time half cycles four fresh specs through four
        paths: plain in-process ``Engine.run`` (E), the traced in-process
        replay, a bare pool round trip (P) and a lone ``Service.submit``
        (S).  Differences of their medians split the open-loop median
        (L) into queue = L - S, front = S - P and pool round trip = P - E.
        """
        result, _ = traced_replay(self.spec(CANARY_SEED))
        self.check_canary([result])
        timing = self.timed(seconds / 2)
        snapshot = self.service.metrics()
        repeat_share = self.repeats / self.ops
        plain: list[float] = []
        pool: list[float] = []
        alone: list[float] = []
        ops: list[TracedOp] = []
        deadline = time.perf_counter() + seconds / 2
        while time.perf_counter() < deadline:
            elapsed, _ = self.safe_op(self.spec(self.seeds.fresh()),
                                      lambda spec: Workload.op(self, spec))
            plain.append(elapsed)
            spec = self.spec(self.seeds.fresh())
            self.note_input(spec)
            result, op = traced_replay(spec)
            self.record(healthy(result))
            ops.append(op)
            elapsed, _ = self.safe_op(
                self.spec(self.seeds.fresh()), self._pool_round_trip)
            pool.append(elapsed)
            elapsed, _ = self.safe_op(
                self.spec(self.seeds.fresh()), self.op)
            alone.append(elapsed)
        open_loop = percentile(timing.latencies, 0.5)
        engine = median(plain)
        metrics = layer_metrics(ops)
        metrics["serving.queue_ms"] = 1e3 * (open_loop - median(alone))
        metrics["serving.front_ms"] = 1e3 * (median(alone) - median(pool))
        metrics["serving.pool_rtt_ms"] = 1e3 * (median(pool) - engine)
        metrics["obs.trace_overhead_pct"] = 100 * (
            median([op.wall for op in ops]) / engine - 1)
        metrics.update(serving_ratios(snapshot))
        metrics["loadgen.late_p90_ms"] = 1e3 * percentile(self.late, 0.9)
        metrics["loadgen.repeat_share"] = repeat_share
        return metrics

    def _pool_round_trip(self, spec: ScenarioSpec) -> list[RunResult]:
        return [self.service.pool.submit("spec", spec).result(timeout=60)]


def serving_ratios(snapshot: dict) -> dict[str, float]:
    """Serving counters from ``Service.metrics()``, read by series name."""
    counters = snapshot.get("counters", {})

    def ratio(part: str, *base: str) -> float:
        whole = sum(counters.get(name, 0) for name in base)
        return counters.get(part, 0) / whole if whole else 0.0

    return {
        "serving.dedup_ratio": ratio("service_deduped_total",
                                     "service_requests_total"),
        "parallel.cache_hit_ratio": ratio(
            "result_cache_hits_total",
            "result_cache_hits_total", "result_cache_misses_total"),
        "serving.requests_per_dispatch": ratio(
            "service_dispatched_requests_total", "service_dispatches_total"),
        "serving.rejected": float(counters.get("service_rejected_total", 0)),
        "pool.retries": float(counters.get("pool_tasks_retried_total", 0)),
    }


WORKLOADS = {cls.name: cls
             for cls in (MvpQuery, ApScan, FaultSweep, ServedMlp)}
