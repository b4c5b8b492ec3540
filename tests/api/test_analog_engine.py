"""The analog_mvm engine: accuracy, nonideality response, validation."""

import math

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.api import Engine, ScenarioSpec, ScenarioError, adapter_for, run
from repro.api.registry import DEVICES, ENGINES, WORKLOADS
from repro.api.spec import SpecError
from repro.crossbar.nonideal import (
    AXIS_FAULTS,
    AXIS_IR_DROP,
    AXIS_VARIABILITY,
    AXIS_WRITE_VERIFY,
)
from repro.parallel import SweepRunner, expand_grid

MLP_SPEC = ScenarioSpec(engine="analog_mvm", workload="mlp_inference",
                        size=24, items=8, batch=3, seed=0)
TEMPORAL_SPEC = ScenarioSpec(engine="analog_mvm",
                             workload="temporal_correlation",
                             size=96, items=6, batch=2, seed=1)


class TestIdealRuns:
    def test_mlp_matches_quantized_reference_exactly(self):
        result = run(MLP_SPEC)
        assert result.ok, result.outputs
        assert result.fidelity is None
        a = result.accuracy
        assert a is not None
        assert a.total == MLP_SPEC.size * MLP_SPEC.batch
        # On an ideal fabric the analog pipeline is bit-identical to
        # the quantized digital reference, so the only accuracy loss
        # versus the float model is quantization -- predictions should
        # nearly always agree.
        assert a.reference_agreement >= 0.9
        assert a.adc_saturations == 0

    def test_mlp_output_error_within_quantization_bound(self):
        """The ideal analog logits track the float logits to within a
        small fraction of the float dynamic range."""
        result = run(MLP_SPEC)
        from repro.api.workloads import adapter_for

        adapter = adapter_for(MLP_SPEC, "analog_mvm")
        samples, _ = adapter._testset(0)
        float_peak = float(
            np.abs(adapter._model.forward(samples)).max())
        assert result.accuracy.max_abs_error <= 0.25 * float_peak

    def test_temporal_detection_tracks_float_reference(self):
        result = run(TEMPORAL_SPEC)
        assert result.ok, result.outputs
        a = result.accuracy
        assert a.total == 2 * 4 * TEMPORAL_SPEC.items
        assert a.reference_agreement >= 0.9
        # Detection itself beats chance by a wide margin: scoring all
        # processes "uncorrelated" would already get 3/4 right, so
        # demand strictly better.
        assert a.task_accuracy > 0.75

    def test_history_matrices_are_built_once_per_item(self):
        """The engine prepares every item's layers, then maps them: the
        second call hands back the arrays the first one built."""
        adapter = adapter_for(TEMPORAL_SPEC, "analog_mvm")
        for index in adapter.batch_indices:
            (prepared,) = adapter.mvm_layers(index)
            (mapped,) = adapter.mvm_layers(index)
            assert mapped is prepared

    def test_item_costs_and_counters_recorded(self):
        result = run(MLP_SPEC)
        assert len(result.item_costs) == MLP_SPEC.batch
        for cost in result.item_costs:
            assert cost.energy_joules > 0
            assert cost.counters["reads"] > 0
            assert cost.counters["adc_conversions"] > 0
            assert cost.counters["tiles"] >= 2   # two layers
        # Latency is the slowest item's, not the sum.
        assert result.cost.latency_seconds == max(
            c.latency_seconds for c in result.item_costs)


class TestNonidealResponse:
    def test_fault_rate_monotonically_degrades_accuracy(self):
        """The acceptance sweep: accuracy never improves with faults,
        and the heavy-fault cell is strictly worse than ideal."""
        base = MLP_SPEC.replaced(batch=4)
        specs = expand_grid(base, {"fault_rate": [0.0, 0.05, 0.25]})
        results = SweepRunner(workers=1).run(specs)
        accuracies = [r.accuracy.task_accuracy for r in results]
        agreements = [r.accuracy.reference_agreement for r in results]
        assert accuracies == sorted(accuracies, reverse=True)
        assert agreements == sorted(agreements, reverse=True)
        assert accuracies[-1] < accuracies[0]
        assert results[0].fidelity is None
        assert all(r.fidelity is not None for r in results[1:])
        assert results[-1].fidelity.stuck_faults > \
            results[1].fidelity.stuck_faults

    def test_faulty_run_reports_fidelity_and_stays_healthy(self):
        result = run(MLP_SPEC.replaced(
            nonideality={"fault_rate": 0.25}))
        assert result.fidelity is not None
        assert result.fidelity.stuck_faults > 0
        assert result.accuracy.reference_agreement < 1.0

    def test_variability_perturbs_outputs(self):
        ideal = run(MLP_SPEC)
        noisy = run(MLP_SPEC.replaced(
            nonideality={"variability_sigma": 0.5}))
        assert noisy.fidelity is not None
        assert noisy.accuracy.max_abs_error > \
            ideal.accuracy.max_abs_error

    def test_write_verify_records_retries(self):
        result = run(MLP_SPEC.replaced(
            size=8, batch=1,
            nonideality={"variability_sigma": 1.2,
                         "write_scheme": "verify"}))
        assert result.fidelity.verify_retries > 0

    def test_narrow_adc_saturates(self):
        # A dense event stream drives per-column popcounts past the
        # 3-bit ADC ceiling, so conversions clip.
        result = run(TEMPORAL_SPEC.replaced(
            params={"adc_bits": 3, "event_rate": 0.6}))
        assert result.accuracy.adc_saturations > 0
        flat = [s for per_item in result.outputs["tile_saturations"]
                for s in per_item]
        assert sum(flat) == result.accuracy.adc_saturations


class TestValidation:
    def test_unknown_param_rejected(self):
        with pytest.raises(ScenarioError, match="unknown params"):
            run(MLP_SPEC.replaced(params={"wight_bits": 4}))

    def test_bad_config_param_value_rejected(self):
        with pytest.raises(ScenarioError, match="weight_bits"):
            run(MLP_SPEC.replaced(params={"weight_bits": 0}))

    def test_workload_params_pass_through(self):
        result = run(TEMPORAL_SPEC.replaced(
            params={"correlation": 0.9, "adc_bits": 8}))
        assert result.accuracy is not None

    def test_non_analog_engines_report_no_accuracy(self):
        result = run(ScenarioSpec(engine="mvp", workload="database",
                                  size=64, items=2))
        assert result.accuracy is None

    def test_unsupported_workload_rejected(self):
        with pytest.raises(ScenarioError, match="does not support"):
            Engine.from_spec(ScenarioSpec(
                engine="analog_mvm", workload="database")).run()

    def test_narrow_window_overrides_stay_reference_exact(self):
        """An ideal run on a tie-prone 2x device window must still pass
        its quantized-reference check (the review regression: the
        reference shares the fabric's float path, so half-tie
        roundings agree)."""
        result = run(MLP_SPEC.replaced(
            device={"name": "bipolar",
                    "overrides": {"r_on": 1e4, "r_off": 2e4}}))
        # ok == the exact analog-vs-quantized-reference check; the
        # float-model agreement may dip (a 2x window quantizes hard)
        # but the reference itself must be reproduced bit-for-bit.
        assert result.ok, result.outputs
        assert result.accuracy.reference_agreement >= 0.8

    def test_device_axis_moves_read_energy(self):
        bipolar = run(MLP_SPEC)
        hp = run(MLP_SPEC.replaced(device="linear_drift"))
        # linear_drift's R_on is 10x lower -> 10x the read energy.
        assert hp.cost.energy_joules == pytest.approx(
            10 * bipolar.cost.energy_joules)

    def test_accuracy_survives_result_round_trip(self):
        result = run(MLP_SPEC)
        from repro.api import RunResult

        rebuilt = RunResult.from_dict(result.to_dict())
        assert rebuilt.accuracy == result.accuracy


class TestModelCache:
    def test_cache_is_bounded_and_eviction_is_invisible(self):
        """Trained models are memoized per seed, but a long-lived
        process serving fresh seeds keeps only the most recent few; a
        seed trained again after eviction yields the same result."""
        from repro.api import workloads

        bound = workloads._MLP_MODEL_CACHE_SIZE
        spec = MLP_SPEC.replaced(size=4, batch=1, seed=7000)
        first = run(spec)
        for seed in range(7001, 7002 + bound):
            run(spec.replaced(seed=seed))
            assert len(workloads._MLP_MODEL_CACHE) <= bound
        assert all(key[0] != 7000 for key in workloads._MLP_MODEL_CACHE)

        def comparable(result):
            data = result.to_dict()
            data["provenance"].pop("wall_seconds")
            return data

        assert comparable(run(spec)) == comparable(first)

    def test_concurrent_lookups_keep_the_bound(self):
        """Threads training and hitting the cache at once (an inline
        serving pool shares it) never break it or overfill it."""
        import sys
        import threading

        from repro.api import workloads
        from repro.api.workloads import adapter_for

        bound = workloads._MLP_MODEL_CACHE_SIZE
        specs = [MLP_SPEC.replaced(size=4, batch=1, seed=7100 + i)
                 for i in range(bound + 4)]
        errors = []

        def worker(offset):
            try:
                for k in range(len(specs)):
                    spec = specs[(k + offset) % len(specs)]
                    adapter_for(spec, "analog_mvm")._model
            except Exception as exc:  # reported by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(workloads._MLP_MODEL_CACHE) <= bound


WARM_SPEC = ScenarioSpec(engine="analog_mvm", workload="mlp_inference",
                         batch=2, seed=7)


def comparable(result) -> dict:
    data = result.to_dict()
    data["provenance"].pop("wall_seconds", None)
    return data


class TestWarmExecution:
    """A process that already ran a spec (a warm pool worker, say)
    runs it again exactly as a cold one does.  Only the trained model
    outlives a run; every run maps its own fabric."""

    @pytest.fixture
    def cold(self, monkeypatch):
        """Empties the trained-model memo, as in a fresh process."""
        from collections import OrderedDict

        from repro.api import workloads

        def empty():
            monkeypatch.setattr(workloads, "_MLP_MODEL_CACHE",
                                OrderedDict())
        return empty

    def test_warm_rerun_bit_identical_to_cold(self, cold, monkeypatch):
        from repro.api import engines
        fabrics = []
        build = engines.AnalogMVMEngine.build_fabric

        def recorded_build(self, adapter):
            fabrics.append(build(self, adapter))
            return fabrics[-1]

        monkeypatch.setattr(engines.AnalogMVMEngine, "build_fabric",
                            recorded_build)
        cold()
        first = run(WARM_SPEC)   # trains the model
        second = run(WARM_SPEC)  # reuses the trained model
        assert comparable(second) == comparable(first)
        assert second.item_costs == first.item_costs
        crossbars = [id(c) for accelerators in fabrics
                     for c in accelerators[0].crossbars]
        assert len(fabrics) == 2
        assert len(set(crossbars)) == len(crossbars)

    def test_batch_variant_after_a_warm_run_matches_cold(self, cold):
        variant = WARM_SPEC.replaced(batch=3)
        cold()
        want = run(variant)
        cold()
        run(WARM_SPEC)
        assert comparable(run(variant)) == comparable(want)

    def test_nonideal_rerun_matches_cold(self, cold):
        nonideal = WARM_SPEC.replaced(
            nonideality=WARM_SPEC.nonideality.replaced(fault_rate=0.05))
        cold()
        want = run(nonideal)
        got = run(nonideal)
        for result in (want, got):
            assert result.fidelity is not None
        assert comparable(got) == comparable(want)


@st.composite
def edge_specs(draw):
    """Valid but unusual ``analog_mvm`` specs: single items and
    samples, every registry device, narrow and wide ADCs, ideal or
    fully stuck or spread fabrics, and tiles up to 100 rows -- with
    layers tall enough (``items`` is the MLP's hidden width,
    ``size`` the temporal workload's history) to fill tiles past an
    int64 read key."""
    workload = draw(st.sampled_from(
        ["mlp_inference", "temporal_correlation"]))
    tall = draw(st.booleans())
    lengths = st.integers(63, 80) if tall else st.integers(1, 4)
    nonideality = {}
    if draw(st.booleans()):
        nonideality["fault_rate"] = 1.0
    if draw(st.booleans()):
        nonideality["variability_sigma"] = 0.3
    return ScenarioSpec(
        engine="analog_mvm", workload=workload,
        device=draw(st.sampled_from([name for name, _ in DEVICES.items()])),
        size=draw(lengths), items=draw(lengths),
        batch=draw(st.integers(1, 3)), seed=draw(st.integers(0, 99)),
        params={"tile_rows": draw(st.integers(63 if tall else 1, 100)),
                "adc_bits": draw(st.sampled_from([1, 2, 8, 16]))},
        nonideality=nonideality,
    )


@st.composite
def ap_edge_specs(draw):
    """``rram_ap`` specs below and at the size floor: one stream and one
    rule (or plant), every kernel, ideal or fully stuck STE cells.  The
    size is left to the test, which climbs from 1."""
    return dict(
        engine="rram_ap",
        workload=draw(st.sampled_from(
            ["networking", "strings", "dna", "datamining"])),
        items=1, batch=1, seed=draw(st.integers(0, 99)),
        params={"kernel": draw(st.sampled_from(["rram", "sram", "sdram"]))},
        nonideality=draw(st.sampled_from([{}, {"fault_rate": 1.0}])),
    )


#: One nonideality per axis an MVP crossbar fabric models.
_AXIS_NONIDEALITIES = {
    AXIS_FAULTS: {"fault_rate": 1.0},
    AXIS_VARIABILITY: {"variability_sigma": 0.3},
    AXIS_IR_DROP: {"wire_resistance": 5.0},
    AXIS_WRITE_VERIFY: {"write_scheme": "verify"},
}


@st.composite
def digital_edge_specs(draw):
    """``mvp``, ``mvp_batched`` and ``arch_model`` specs at their
    floors: every workload the engine accepts, sizes from 1, one or two
    items and batch items, and any mix of the nonideality axes the
    engine models.  ``arch_model`` runs only at its default size, items
    and seed, so those are drawn too."""
    engine = draw(st.sampled_from(["mvp", "mvp_batched", "arch_model"]))
    workload = draw(st.sampled_from(sorted(
        name for name, adapter in WORKLOADS.items()
        if engine in adapter.engines)))
    nonideality = {}
    for axis in sorted(ENGINES.get(engine).nonideality_axes):
        if draw(st.booleans()):
            nonideality.update(_AXIS_NONIDEALITIES[axis])
    fields = dict(size=draw(st.integers(1, 8)),
                  items=draw(st.integers(1, 2)),
                  seed=draw(st.integers(0, 99)))
    if engine == "arch_model" and draw(st.booleans()):
        fields = {}
    return ScenarioSpec(engine=engine, workload=workload,
                        batch=draw(st.integers(1, 2)),
                        nonideality=nonideality, **fields)


def assert_healthy_ledgers(result):
    for cost in (result.cost, *result.item_costs):
        for value in (cost.energy_joules, cost.latency_seconds,
                      *cost.counters.values()):
            assert math.isfinite(value) and value >= 0, cost


class TestFacadeFuzz:
    """Every edge spec runs to healthy ledgers or fails typed."""

    @settings(max_examples=30, deadline=None)
    @given(edge_specs())
    def test_edge_specs_run_or_raise_typed(self, spec):
        try:
            result = run(spec)
        except (ScenarioError, SpecError) as exc:
            event(f"rejected: {type(exc).__name__}")
            return
        assert_healthy_ledgers(result)
        height = spec.items if spec.workload == "mlp_inference" \
            else spec.size
        if min(spec.params["tile_rows"], height) > 62:
            event("tiles over 62 rows")
        if spec.nonideality.is_default():
            event("ideal")
            assert result.outputs["checks_passed"] is True
        else:
            event("nonideal")

    @settings(max_examples=40, deadline=None)
    @given(ap_edge_specs())
    def test_ap_edge_specs_run_or_raise_typed(self, fields):
        """Sizes climb from 1: every size below the smallest that fits
        raises a typed error, and the smallest that fits returns healthy
        ledgers (and passes its check when ideal)."""
        for size in range(1, 17):
            spec = ScenarioSpec(size=size, **fields)
            try:
                result = run(spec)
            except (ScenarioError, SpecError):
                continue
            assert size > 1, "size 1 fits no AP workload"
            assert_healthy_ledgers(result)
            if spec.nonideality.is_default():
                event("ideal")
                assert result.outputs["checks_passed"] is True
            else:
                event("stuck")
            event(f"{spec.workload}: smallest size {size}")
            return
        pytest.fail(f"no size up to 16 fits {fields}")

    @settings(max_examples=150, deadline=None)
    @given(digital_edge_specs())
    # Regressions: a one-vertex graph and a non-numeric degree fail
    # typed, not as a ValueError.
    @example(ScenarioSpec(engine="mvp", workload="graph", size=1,
                          items=1, batch=1))
    @example(ScenarioSpec(engine="mvp", workload="graph", size=6,
                          items=1, batch=1, params={"avg_degree": "abc"}))
    def test_digital_edge_specs_run_or_raise_typed(self, spec):
        try:
            result = run(spec)
        except (ScenarioError, SpecError) as exc:
            event(f"{spec.engine}: rejected ({type(exc).__name__})")
            return
        assert_healthy_ledgers(result)
        event(f"{spec.engine} x {spec.workload}: ran")
        if spec.nonideality.is_default():
            assert result.outputs["checks_passed"] is True
