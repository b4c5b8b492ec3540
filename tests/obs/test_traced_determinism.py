"""Zero-perturbation contract: tracing never changes a result.

The determinism suites under ``tests/parallel`` pin workers=N ==
workers=1; these re-run the same comparisons **with a tracer active**
on one side only, so any tracing-induced RNG touch, spec-hash
perturbation, or float drift shows up as a bit-level mismatch.
"""

import pytest

from repro.api import Engine, ScenarioSpec
from repro.obs.trace import deactivate_tracer, traced
from repro.parallel import ParallelRunner, SweepRunner

SPEC = ScenarioSpec(engine="analog_mvm", workload="mlp_inference",
                    size=12, items=6, batch=5, seed=3)


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    deactivate_tracer()
    yield
    deactivate_tracer()


def _comparable(result):
    """A result dict with scheduling provenance stripped.

    ``wall_seconds``/``parallel``/``trace`` describe *how* a run was
    scheduled, never *what* it computed -- same exclusions the parallel
    determinism suites use.
    """
    data = result.to_dict()
    for key in ("wall_seconds", "parallel", "trace"):
        data.get("provenance", {}).pop(key, None)
    return data


class TestTracedDeterminism:
    def test_serial_run_identical_under_tracer(self):
        baseline = Engine.from_spec(SPEC).run()
        with traced() as tracer:
            observed = Engine.from_spec(SPEC).run()
        assert len(tracer) > 0  # the tracer actually saw the run
        assert _comparable(observed) == _comparable(baseline)

    @pytest.mark.parametrize("engine,workload", [
        ("analog_mvm", "mlp_inference"),
        ("mvp_batched", "database"),
    ])
    @pytest.mark.usefixtures("two_cpus")
    def test_sharded_traced_matches_serial_untraced(self, engine,
                                                    workload):
        spec = SPEC.replaced(engine=engine, workload=workload)
        serial = ParallelRunner(workers=1).run(spec)
        with traced() as tracer:
            sharded = ParallelRunner(workers=2).run(spec)
        assert _comparable(sharded) == _comparable(serial)
        names = {rec.name for rec in tracer.records()}
        # Worker spans were shipped back and stitched in.
        assert "shards.dispatch" in names
        assert "shard.window" in names

    @pytest.mark.usefixtures("two_cpus")
    def test_fanned_sweep_traced_matches_serial_untraced(self):
        specs = [SPEC.replaced(seed=seed) for seed in range(3)]
        serial = SweepRunner(workers=1).run(specs)
        with traced() as tracer:
            fanned = SweepRunner(workers=2).run(specs)
        for got, want in zip(fanned, serial):
            assert _comparable(got) == _comparable(want)
        # Each cell's worker spans were shipped back and stitched in.
        runs = [rec for rec in tracer.records() if rec.name == "engine.run"]
        assert len(runs) == len(specs)

    def test_repeated_traced_runs_identical(self):
        with traced():
            first = Engine.from_spec(SPEC).run()
        with traced():
            second = Engine.from_spec(SPEC).run()
        assert _comparable(first) == _comparable(second)

    def test_trace_ids_not_seed_derived(self):
        # Trace ids must come from outside the seeded streams: two runs
        # of the same spec get distinct ids (and the seeded results
        # above stay identical regardless).
        with traced() as first:
            Engine.from_spec(SPEC).run()
        with traced() as second:
            Engine.from_spec(SPEC).run()
        assert first.trace_id != second.trace_id
