"""Sharded analog MVM == single-process, AccuracySummary included.

The analog engine's determinism contract extends the sharded
executor's: besides outputs and cost records, the AccuracySummary (and,
for nonideal specs, the FidelitySummary over all tile fabrics) must
fold across shards bit-identically to the workers=1 run, and a cache
replay must return the accuracy the miss computed.  Every window runs
as one group through the kernel, so a shard plan that splits a batch
into 1-item windows compares groups of one with the whole-batch group,
wire-IR-drop fabrics included.
"""

import pytest

from repro.api import Engine, ScenarioSpec
from repro.parallel import ParallelRunner

MLP = ScenarioSpec(engine="analog_mvm", workload="mlp_inference",
                   size=12, items=6, batch=5, seed=3)
TEMPORAL = ScenarioSpec(engine="analog_mvm",
                        workload="temporal_correlation",
                        size=48, items=4, batch=5, seed=2)
FAULTY = MLP.replaced(nonideality={"fault_rate": 0.05})
NOISY = TEMPORAL.replaced(nonideality={"variability_sigma": 0.3})
#: Wire IR drop: every distinct read solves its tiles' nodal networks,
#: so the histories stay short (one row band, 16 steps).
WIRED = TEMPORAL.replaced(size=16, items=3,
                          nonideality={"wire_resistance": 5.0})


def _IDS(spec):
    wires = spec.nonideality.wire_resistance
    return (f"{spec.workload}-{spec.nonideality.fault_rate}-"
            f"{spec.nonideality.variability_sigma}"
            + (f"-wire{wires}" if wires else ""))


def comparable(result):
    data = result.to_dict()
    for key in ("wall_seconds", "parallel", "cache"):
        data["provenance"].pop(key, None)
    return data


class TestShardedEqualsPlain:
    @pytest.mark.parametrize("spec", [MLP, TEMPORAL, FAULTY, NOISY, WIRED],
                             ids=_IDS)
    @pytest.mark.parametrize("workers", [2, 3, 5, 8])
    def test_inline_shard_plan_is_bit_identical(self, spec, workers):
        plain = Engine.from_spec(spec).run()
        sharded = ParallelRunner(workers=workers, pool="inline").run(
            spec)
        assert comparable(sharded) == comparable(plain)
        assert sharded.cost == plain.cost
        assert sharded.item_costs == plain.item_costs
        # Dataclass equality: every accuracy field bit-identical.
        assert sharded.accuracy == plain.accuracy
        assert sharded.fidelity == plain.fidelity

    @pytest.mark.usefixtures("two_cpus")
    def test_process_pool_is_bit_identical(self):
        plain = Engine.from_spec(FAULTY).run()
        sharded = ParallelRunner(workers=2).run(FAULTY)
        assert sharded.provenance["parallel"]["workers"] == 2
        assert comparable(sharded) == comparable(plain)
        assert sharded.accuracy == plain.accuracy
        assert sharded.fidelity == plain.fidelity


class TestGroupedDispatchEquivalence:
    """Ledger twins are a pure layout change.

    Ideal items holding one model's very weight arrays share one
    mapped fabric, and a group reads it once for all of them; mapping
    every item separately must reproduce the exact same result,
    provenance scheduling aside.
    """

    def test_ledger_twins_equal_independent_builds(self, monkeypatch):
        from repro.api import engines
        from repro.api import workloads as wl
        fabrics = []
        build = engines.AnalogMVMEngine.build_fabric

        def recorded_build(self, adapter):
            fabrics.append(build(self, adapter))
            return fabrics[-1]

        monkeypatch.setattr(engines.AnalogMVMEngine, "build_fabric",
                            recorded_build)
        twinned = Engine.from_spec(MLP).run()
        # Fresh weight copies defeat the identical-arrays check, so
        # every item maps its own fabric instead of twinning.
        orig = wl.MLPInferenceAdapter.mvm_layers
        monkeypatch.setattr(
            wl.MLPInferenceAdapter, "mvm_layers",
            lambda self, index: [w.copy()
                                 for w in orig(self, index)])
        rebuilt = Engine.from_spec(MLP).run()
        shared, separate = fabrics
        assert len(shared) == len(separate) == MLP.batch
        first = shared[0].crossbars
        for accelerator in shared[1:]:
            assert all(a is b for a, b in
                       zip(accelerator.crossbars, first, strict=True))
        crossbars = [id(c) for accelerator in separate
                     for c in accelerator.crossbars]
        assert len(set(crossbars)) == len(crossbars)
        assert comparable(rebuilt) == comparable(twinned)
        assert rebuilt.item_costs == twinned.item_costs

    def test_twins_need_the_very_same_arrays(self):
        """Items twin on identical weight arrays; equal copies do not."""
        import numpy as np

        from repro.api.engines import _same_layers
        layers = [np.eye(3), np.ones((3, 2))]
        assert _same_layers(list(layers), layers)
        assert not _same_layers([w.copy() for w in layers], layers)
        assert not _same_layers(layers[:1], layers)
        assert not _same_layers(layers, None)


class TestCacheReplay:
    def test_replay_preserves_accuracy(self, tmp_path):
        runner = ParallelRunner(workers=2, pool="inline",
                                cache=tmp_path / "cache")
        first = runner.run(MLP)
        assert "cache" not in first.provenance
        replay = runner.run(MLP)
        assert replay.provenance["cache"]["hit"]
        assert replay.accuracy == first.accuracy
        assert replay.cost == first.cost

    def test_replay_preserves_fidelity_and_accuracy_together(
            self, tmp_path):
        runner = ParallelRunner(cache=tmp_path / "cache")
        first = runner.run(FAULTY)
        replay = runner.run(FAULTY)
        assert replay.provenance["cache"]["hit"]
        assert replay.accuracy == first.accuracy
        assert replay.fidelity == first.fidelity
