"""The facade acceptance matrix: every engine returns a populated result.

Also covers determinism (equal specs -> equal results), dispatch from
plain dicts, batched-vs-single equivalence through the facade, and the
unsupported engine x workload error paths.
"""

import hashlib

import pytest

from repro.api import (
    Engine,
    RunResult,
    ScenarioError,
    ScenarioSpec,
    run,
)
from repro.api.workloads import adapter_for


def _assert_populated(result: RunResult, spec: ScenarioSpec) -> None:
    assert isinstance(result, RunResult)
    assert result.spec == spec
    assert result.ok, result.outputs
    assert result.outputs
    assert result.cost.energy_joules > 0
    assert result.cost.latency_seconds > 0
    assert result.cost.counters
    assert len(result.item_costs) >= 1
    assert result.provenance["engine"] == spec.engine
    assert result.provenance["workload"] == spec.workload
    assert result.provenance["seed"] == spec.seed
    assert result.provenance["wall_seconds"] >= 0


class TestAcceptanceMatrix:
    """One facade call per engine (the PR's acceptance criterion)."""

    @pytest.mark.parametrize("spec", [
        ScenarioSpec(engine="mvp", workload="database", size=128, items=3),
        ScenarioSpec(engine="mvp", workload="graph", size=24),
        ScenarioSpec(engine="mvp_batched", workload="database", size=128,
                     items=3, batch=4),
        ScenarioSpec(engine="rram_ap", workload="dna", size=400, items=3,
                     batch=2),
        ScenarioSpec(engine="rram_ap", workload="networking", size=256,
                     items=4, batch=2),
        ScenarioSpec(engine="rram_ap", workload="strings", size=128,
                     items=3, batch=2),
        ScenarioSpec(engine="rram_ap", workload="datamining", size=32,
                     items=3, batch=8),
        ScenarioSpec(engine="arch_model", workload="database"),
        ScenarioSpec(engine="arch_model", workload="dna"),
    ], ids=lambda s: f"{s.engine}-{s.workload}")
    def test_engine_returns_populated_result(self, spec):
        _assert_populated(Engine.from_spec(spec).run(), spec)

    def test_run_convenience_equals_engine_run(self):
        spec = ScenarioSpec(engine="mvp", workload="database", size=64)
        assert run(spec).outputs == Engine.from_spec(spec).run().outputs

    def test_from_spec_accepts_plain_dict(self):
        result = run({"engine": "mvp", "workload": "database",
                      "size": 64})
        assert result.ok

    def test_run_with_override_spec_redispatches(self):
        engine = Engine.from_spec(
            ScenarioSpec(engine="mvp", workload="database", size=64))
        other = ScenarioSpec(engine="arch_model", workload="graph")
        result = engine.run(other)
        assert result.provenance["engine"] == "arch_model"


class TestDeterminism:
    def test_equal_specs_give_equal_outputs(self):
        spec = ScenarioSpec(engine="rram_ap", workload="strings",
                            size=128, items=3, batch=2, seed=11)
        first = run(spec)
        second = run(ScenarioSpec.from_dict(spec.to_dict()))
        assert first.outputs == second.outputs
        assert first.cost == second.cost

    def test_seed_changes_outputs(self):
        base = ScenarioSpec(engine="mvp", workload="database", size=256,
                            items=3)
        a = run(base)
        b = run(base.replaced(seed=99))
        assert a.outputs["counts"] != b.outputs["counts"]

    @pytest.mark.parametrize("size, items, batch, seed, digest", [
        (64, 3, 4, 0, "6237eb2d67903dc0"),
        (256, 8, 16, 11, "37a0a09c8a930cc6"),
    ])
    def test_strings_draws_are_pinned(self, size, items, batch, seed,
                                      digest):
        """The strings patterns and texts a seed draws stay fixed, so
        a faster draw cannot change a workload."""
        spec = ScenarioSpec(engine="rram_ap", workload="strings",
                            size=size, items=items, batch=batch,
                            seed=seed)
        adapter = adapter_for(spec, "rram_ap")
        patterns, texts = adapter._patterns, adapter.streams()
        assert all(type(s) is str for s in (*patterns, *texts))
        text = repr((patterns, texts))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


class TestBatchedEquivalence:
    def test_batched_first_item_matches_single_run(self):
        """Batch item 0 sees exactly the single-engine scenario."""
        single = run(ScenarioSpec(engine="mvp", workload="database",
                                  size=128, items=3, seed=5))
        batched = run(ScenarioSpec(engine="mvp_batched",
                                   workload="database", size=128,
                                   items=3, batch=1, seed=5))
        assert [c[0] for c in batched.outputs["counts"]] \
            == single.outputs["counts"]
        assert batched.item_costs[0] == single.item_costs[0]


class TestErrorPaths:
    def test_single_item_engine_rejects_batch(self):
        with pytest.raises(ScenarioError, match="single-item"):
            Engine.from_spec(ScenarioSpec(engine="mvp",
                                          workload="database", batch=2))

    def test_unsupported_workload_engine_pair(self):
        with pytest.raises(ScenarioError, match="does not support"):
            run(ScenarioSpec(engine="mvp", workload="dna"))

    def test_unsupported_pair_names_both_sides(self):
        with pytest.raises(ScenarioError, match="dna.*mvp_batched"):
            run(ScenarioSpec(engine="mvp_batched", workload="dna"))

    def test_unknown_ap_kernel(self):
        with pytest.raises(ScenarioError, match="kernel"):
            run(ScenarioSpec(engine="rram_ap", workload="dna", size=256,
                             items=2, params={"kernel": "dilithium"}))

    def test_engine_mismatch_on_direct_construction(self):
        from repro.api.engines import MVPEngine
        with pytest.raises(ScenarioError, match="handed"):
            MVPEngine(ScenarioSpec(engine="rram_ap", workload="dna"))

    def test_typoed_param_key_rejected(self):
        """A typo like 'kern' for 'kernel' fails loudly, never silently."""
        with pytest.raises(ScenarioError, match="kern"):
            run(ScenarioSpec(engine="rram_ap", workload="dna", size=256,
                             items=2, params={"kern": "sram"}))

    def test_param_not_read_by_this_pairing_rejected(self):
        with pytest.raises(ScenarioError, match="kernel"):
            run(ScenarioSpec(engine="mvp", workload="database", size=64,
                             params={"kernel": "sram"}))

    def test_param_for_other_surface_rejected(self):
        """A knob only another engine surface reads is not silently
        ignored: accelerated_fraction is an arch_model-only input."""
        with pytest.raises(ScenarioError, match="accelerated_fraction"):
            run(ScenarioSpec(engine="mvp", workload="database", size=64,
                             params={"accelerated_fraction": 0.5}))
        # ... and it is accepted where it is actually read.
        result = run(ScenarioSpec(engine="arch_model",
                                  workload="database",
                                  params={"accelerated_fraction": 0.5}))
        assert result.outputs["accelerated_fraction"] == 0.5

    @pytest.mark.parametrize("degree", ["abc", -2.0, float("nan"),
                                        float("inf")])
    def test_graph_rejects_unusable_avg_degree(self, degree):
        """A degree that is no finite number >= 0 fails typed, instead
        of escaping as a bare ValueError or running an edgeless (-2) or
        complete (NaN, inf) graph."""
        with pytest.raises(ScenarioError, match="avg_degree"):
            run(ScenarioSpec(engine="mvp", workload="graph", size=6,
                             params={"avg_degree": degree}))

    def test_arch_model_rejects_unused_axes(self):
        for overrides in ({"size": 9999}, {"items": 7}, {"seed": 99}):
            with pytest.raises(ScenarioError, match="analytical model"):
                run(ScenarioSpec(engine="arch_model",
                                 workload="database", **overrides))


class TestDeviceSwap:
    def test_device_changes_mvp_read_energy(self):
        """spec.device is a real axis: the LRS window moves read energy."""
        base = ScenarioSpec(engine="mvp", workload="database", size=128,
                            items=3)
        bipolar = run(base)
        drift = run(base.replaced(device="linear_drift"))
        # Same programs, same counts -- only the device pricing moves.
        assert drift.outputs["counts"] == bipolar.outputs["counts"]
        assert drift.cost.counters == bipolar.cost.counters
        # linear_drift's published R_on (100 Ohm) draws 10x the read
        # current of the 1 kOhm reference device.
        assert drift.cost.energy_joules > bipolar.cost.energy_joules

    def test_all_devices_run_all_mvp_engines(self):
        from repro.api import DEVICES
        for device in DEVICES.names():
            result = run(ScenarioSpec(engine="mvp", workload="database",
                                      size=64, items=2, device=device))
            assert result.ok, device

    @pytest.mark.parametrize("engine,workload", [
        ("rram_ap", "dna"), ("arch_model", "database"),
    ])
    def test_device_insensitive_engines_reject_non_default(self, engine,
                                                           workload):
        """Engines that ignore the device axis say so instead of lying."""
        with pytest.raises(ScenarioError, match="device axis"):
            run(ScenarioSpec(engine=engine, workload=workload, size=256,
                             items=2, device="stanford"))

    def test_unknown_device_gets_discovery_error_everywhere(self):
        """An unregistered device name lists the registry choices, even
        on engines that ignore the device axis."""
        from repro.api import UnknownNameError
        with pytest.raises(UnknownNameError, match="bipolar"):
            run(ScenarioSpec(engine="rram_ap", workload="dna", size=256,
                             items=2, device="no_such"))


class TestKernelSwap:
    def test_sram_kernel_costs_more_energy(self):
        base = ScenarioSpec(engine="rram_ap", workload="dna", size=400,
                            items=3, batch=2)
        rram = run(base)
        sram = run(base.replaced(params={"kernel": "sram"}))
        # Same automaton, same streams; only the kernel pricing differs.
        assert sram.outputs["match_counts"] == rram.outputs["match_counts"]
        assert sram.cost.energy_joules > rram.cost.energy_joules


class TestResultSerialization:
    def test_to_dict_is_json_safe(self):
        import json
        result = run(ScenarioSpec(engine="rram_ap", workload="dna",
                                  size=256, items=2, batch=2))
        payload = json.dumps(result.to_dict())
        assert '"checks_passed": true' in payload
