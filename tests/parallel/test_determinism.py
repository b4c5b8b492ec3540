"""The determinism contract: ``workers=N`` is bit-identical to ``workers=1``.

For every registered engine (on a representative workload each) the
sharded executor must reproduce the plain ``Engine.run`` result
*exactly* -- same outputs, same per-item cost records, floating-point
cost totals equal bit for bit, not approximately.  Likewise a cache hit
must replay what the miss computed.  Only provenance keys that describe
*how* the run happened (wall time, shard plan, cache marker) may
differ; everything describing *what* was computed may not.
"""

import pytest

from repro.api import Engine, ScenarioSpec
from repro.parallel import ParallelRunner

#: One representative workload per shardable engine, with sizes chosen
#: so batches split raggedly (batch not divisible by workers).
SHARDABLE_CASES = [
    ScenarioSpec(engine="mvp_batched", workload="database", size=96,
                 items=3, batch=5, seed=3),
    ScenarioSpec(engine="rram_ap", workload="dna", size=240, items=2,
                 batch=5, seed=1),
    ScenarioSpec(engine="rram_ap", workload="networking", size=192,
                 items=3, batch=5, seed=2),
    ScenarioSpec(engine="rram_ap", workload="strings", size=96, items=3,
                 batch=5, seed=4),
    ScenarioSpec(engine="rram_ap", workload="datamining", size=24,
                 items=3, batch=7, seed=5),
]

#: Engines without a shard hook: the runner must fall through to the
#: plain path untouched.
PASSTHROUGH_CASES = [
    ScenarioSpec(engine="mvp", workload="database", size=96, items=3,
                 seed=3),
    ScenarioSpec(engine="mvp", workload="graph", size=24, seed=2),
    ScenarioSpec(engine="arch_model", workload="database"),
]

_IDS = "{0.engine}-{0.workload}".format


def comparable(result):
    """to_dict minus the provenance keys that describe scheduling."""
    data = result.to_dict()
    for key in ("wall_seconds", "parallel", "cache"):
        data["provenance"].pop(key, None)
    return data


class TestShardedEqualsPlain:
    @pytest.mark.parametrize("spec", SHARDABLE_CASES, ids=_IDS)
    @pytest.mark.parametrize("workers", [2, 3, 4, 16])
    def test_inline_shard_plan_is_bit_identical(self, spec, workers):
        """Every shard plan (even workers > batch) reproduces workers=1.

        The inline pool runs the identical shard/merge machinery
        without process transport, so the whole plan matrix stays fast
        enough to sweep exhaustively.
        """
        plain = Engine.from_spec(spec).run()
        assert plain.ok, plain.outputs
        sharded = ParallelRunner(workers=workers, pool="inline").run(spec)
        assert comparable(sharded) == comparable(plain)
        # Exact dataclass equality: floats bit-identical, not approx.
        assert sharded.cost == plain.cost
        assert sharded.item_costs == plain.item_costs

    @pytest.mark.parametrize("spec", [SHARDABLE_CASES[0],
                                      SHARDABLE_CASES[1]], ids=_IDS)
    @pytest.mark.usefixtures("two_cpus")
    def test_process_pool_is_bit_identical(self, spec):
        """The real multiprocessing pool adds only transport, no drift."""
        plain = Engine.from_spec(spec).run()
        sharded = ParallelRunner(workers=2).run(spec)
        assert sharded.provenance["parallel"]["workers"] == 2
        assert comparable(sharded) == comparable(plain)
        assert sharded.cost == plain.cost
        assert sharded.item_costs == plain.item_costs

    @pytest.mark.parametrize("spec", PASSTHROUGH_CASES, ids=_IDS)
    def test_non_shardable_engines_pass_through(self, spec):
        plain = Engine.from_spec(spec).run()
        via_runner = ParallelRunner(workers=4, pool="inline").run(spec)
        assert comparable(via_runner) == comparable(plain)

    def test_shard_provenance_records_the_plan(self):
        spec = SHARDABLE_CASES[0]
        result = ParallelRunner(workers=2, pool="inline").run(spec)
        shards = result.provenance["parallel"]["shards"]
        assert [s["offset"] for s in shards] == [0, 3]
        assert [s["count"] for s in shards] == [3, 2]
        assert all(s["wall_seconds"] >= 0 for s in shards)


class TestCacheDeterminism:
    @pytest.mark.parametrize("spec", [
        SHARDABLE_CASES[0],          # sharded producer
        SHARDABLE_CASES[4],          # AP engine
        PASSTHROUGH_CASES[2],        # non-shardable producer
    ], ids=_IDS)
    def test_cache_hit_equals_cache_miss(self, spec, tmp_path):
        runner = ParallelRunner(workers=2, cache=tmp_path / "cache",
                                pool="inline")
        miss = runner.run(spec)
        hit = runner.run(spec)
        assert "cache" not in miss.provenance
        assert hit.provenance["cache"]["hit"] is True
        assert comparable(hit) == comparable(miss)
        # Costs and spec reconstruct exactly from the JSON entry.
        assert hit.cost == miss.cost
        assert hit.item_costs == miss.item_costs
        assert hit.spec == miss.spec

    def test_cache_is_shared_across_worker_counts(self, tmp_path):
        """A result produced at workers=1 serves a workers=4 run."""
        spec = SHARDABLE_CASES[0]
        cache = tmp_path / "cache"
        first = ParallelRunner(workers=1, cache=cache).run(spec)
        replay = ParallelRunner(workers=4, cache=cache,
                                pool="inline").run(spec)
        assert replay.provenance["cache"]["hit"] is True
        assert comparable(replay) == comparable(first)

    def test_different_seeds_do_not_collide(self, tmp_path):
        base = SHARDABLE_CASES[0]
        runner = ParallelRunner(workers=1, cache=tmp_path / "cache")
        a = runner.run(base)
        b = runner.run(base.replaced(seed=base.seed + 1))
        assert "cache" not in b.provenance
        assert a.outputs != b.outputs
