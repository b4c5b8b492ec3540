"""Nonideal runs through the sharded executor: exact determinism.

The fabric entropy derivation (per-item streams keyed by absolute
batch index; one shared stream for the AP's one-time configuration)
must make robustness runs exactly as deterministic as ideal ones:
``workers=N`` equals ``workers=1`` bit for bit -- outputs, costs,
*and* the new fidelity keys -- and cache replays reproduce the live
run's payload.
"""

import pytest

from repro.api import FidelitySummary, NonidealitySpec, ScenarioSpec, run
from repro.parallel import ParallelRunner, SweepRunner, expand_grid

NONIDEAL = {
    "fault_rate": 0.03,
    "variability_sigma": 0.2,
    "write_scheme": "verify",
}

BATCHED = ScenarioSpec(engine="mvp_batched", workload="database",
                       size=96, items=3, batch=6, seed=5,
                       nonideality=NONIDEAL)

AP = ScenarioSpec(engine="rram_ap", workload="dna", size=400, items=3,
                  batch=6, seed=5, nonideality={"fault_rate": 0.02})


def _assert_identical(a, b):
    assert a.outputs == b.outputs
    assert a.cost == b.cost
    assert a.item_costs == b.item_costs
    assert a.fidelity == b.fidelity


class TestWorkerDeterminism:
    @pytest.mark.parametrize("workers", [2, 4, 6])
    def test_batched_mvp_nonideal_workers_equal_single(self, workers):
        single = ParallelRunner(workers=1).run(BATCHED)
        sharded = ParallelRunner(workers=workers, pool="inline") \
            .run(BATCHED)
        _assert_identical(single, sharded)
        assert isinstance(sharded.fidelity, FidelitySummary)
        assert sharded.fidelity.stuck_faults > 0
        assert sharded.fidelity.verify_retries >= 0

    @pytest.mark.usefixtures("two_cpus")
    def test_real_process_pool_matches_inline(self):
        inline = ParallelRunner(workers=2, pool="inline").run(BATCHED)
        pooled = ParallelRunner(workers=2).run(BATCHED)
        _assert_identical(inline, pooled)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_ap_config_faults_workers_equal_single(self, workers):
        single = ParallelRunner(workers=1).run(AP)
        sharded = ParallelRunner(workers=workers, pool="inline").run(AP)
        _assert_identical(single, sharded)
        # The AP's campaign is its one-time chip configuration: the
        # merge must keep one copy, not sum it once per shard.
        assert sharded.fidelity.stuck_faults == \
            single.fidelity.stuck_faults

    def test_item_physics_invariant_to_batch_size(self):
        """Item 0's cost record must not depend on who shares the
        batch -- faults and spread are keyed by absolute index."""
        small = run(BATCHED.replaced(batch=1))
        large = ParallelRunner(workers=1).run(BATCHED)
        assert small.item_costs[0] == large.item_costs[0]


class TestNonidealSweep:
    def test_fault_by_sigma_grid_end_to_end(self, tmp_path):
        """The acceptance grid: fault-rate x variability, per-point
        fidelity, workers=4 == workers=1, cache hit == miss."""
        base = BATCHED.replaced(batch=2, size=64,
                                nonideality=NonidealitySpec())
        axes = {"fault_rate": [0.0, 0.02, 0.05],
                "variability_sigma": [0.0, 0.3]}
        specs = expand_grid(base, axes)
        assert len(specs) == 6

        cache_dir = tmp_path / "cache"
        serial = SweepRunner(workers=1).run(specs)
        fanned = SweepRunner(workers=4, cache=cache_dir).run(specs)
        for a, b in zip(serial, fanned):
            _assert_identical(a, b)

        # Ideal cells carry no fidelity; every nonideal cell does.
        for spec, result in zip(specs, fanned):
            if spec.nonideality.is_default():
                assert result.fidelity is None
            else:
                assert isinstance(result.fidelity, FidelitySummary)
                assert result.fidelity.cells > 0

        replayed = SweepRunner(workers=4, cache=cache_dir).run(specs)
        for live, hit in zip(fanned, replayed):
            assert hit.provenance["cache"]["hit"]
            assert hit.outputs == live.outputs
            assert hit.cost == live.cost
            assert hit.fidelity == live.fidelity

    def test_grid_axes_reach_device_overrides(self):
        specs = expand_grid(ScenarioSpec(), {"device.r_on": [1e3, 2e3]})
        assert [s.device.overrides["r_on"] for s in specs] == [1e3, 2e3]
        assert specs[0].device.name == "bipolar"

    def test_device_axis_keeps_base_overrides(self):
        """Sweeping the device *name* must not silently drop the base
        spec's pinned window overrides (regression)."""
        base = ScenarioSpec(device={"name": "bipolar",
                                    "overrides": {"r_on": 2e3}})
        specs = expand_grid(base, {"device": ["bipolar", "vteam"]})
        assert [s.device.name for s in specs] == ["bipolar", "vteam"]
        for spec in specs:
            assert spec.device.overrides == {"r_on": 2e3}

    def test_device_axis_composes_with_override_axis(self):
        specs = expand_grid(ScenarioSpec(), {
            "device": ["bipolar", "vteam"],
            "device.r_on": [1e3, 4e3],
        })
        assert [(s.device.name, s.device.overrides["r_on"])
                for s in specs] == [
            ("bipolar", 1e3), ("bipolar", 4e3),
            ("vteam", 1e3), ("vteam", 4e3),
        ]

    def test_co_swept_dependent_knobs_validate_together(self):
        """stuck_at_one_fraction may ride next to the fault_rate axis
        that makes it meaningful, regardless of flag order."""
        specs = expand_grid(ScenarioSpec(), {
            "stuck_at_one_fraction": [0.0, 1.0],
            "fault_rate": [0.01],
        })
        assert [s.nonideality.stuck_at_one_fraction for s in specs] == \
            [0.0, 1.0]

    def test_grid_with_off_point_normalizes_dependent_knobs(self):
        """The off point of a primary axis must stay representable in
        a grid that also sweeps a dependent knob: there the knob is
        inert and normalizes to its default (regression)."""
        specs = expand_grid(ScenarioSpec(), {
            "fault_rate": [0.0, 0.01],
            "stuck_at_one_fraction": [0.3, 0.7],
        })
        assert len(specs) == 4
        # fault_rate=0 cells collapse to the ideal fabric...
        assert specs[0].nonideality.is_default()
        assert specs[1].nonideality.is_default()
        # ...and the on-cells carry the swept fraction.
        assert [s.nonideality.stuck_at_one_fraction
                for s in specs[2:]] == [0.3, 0.7]

        specs = expand_grid(ScenarioSpec(), {
            "write_scheme": ["direct", "verify"],
            "verify_iterations": [5],
        })
        assert specs[0].nonideality.is_default()
        assert specs[1].nonideality.verify_iterations == 5

    def test_seed_moves_the_fault_campaign(self):
        a = ParallelRunner(workers=1).run(BATCHED)
        b = ParallelRunner(workers=1).run(BATCHED.replaced(seed=6))
        assert a.fidelity.stuck_faults == b.fidelity.stuck_faults
        assert a.cost != b.cost or a.outputs != b.outputs


class TestCacheRoundTrip:
    def test_fidelity_survives_the_cache(self, tmp_path):
        runner = ParallelRunner(workers=1, cache=tmp_path / "c")
        live = runner.run(BATCHED)
        hit = runner.run(BATCHED)
        assert hit.provenance["cache"]["hit"]
        assert hit.fidelity == live.fidelity
        assert hit.fidelity.bit_error_rate == \
            live.fidelity.bit_error_rate
