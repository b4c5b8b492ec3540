"""Warm-fabric cache: LRU semantics, activation, engine reuse hooks.

The contract under test: with a cache activated, repeated ideal
analog-MVM runs of one spec structure reuse the mapped fabric template
via ledger twins and stay bit-identical to cold construction; nonideal
specs never participate; deactivation restores stateless behavior.
"""

import pytest

from repro.api import Engine, ScenarioSpec
from repro.api.engines import AnalogMVMEngine
from repro.api.fabric_cache import (
    FabricCache,
    activate_fabric_cache,
    active_fabric_cache,
    deactivate_fabric_cache,
)

ANALOG = ScenarioSpec(engine="analog_mvm", workload="mlp_inference",
                      batch=2, seed=7)


@pytest.fixture(autouse=True)
def cold_after_each_test():
    yield
    deactivate_fabric_cache()


class TestFabricCache:
    def test_lookup_miss_then_store_then_hit(self):
        cache = FabricCache()
        assert cache.lookup("k") is None
        cache.store("k", "template")
        assert cache.lookup("k") == "template"
        counts = cache.counts()
        assert (counts["hits"], counts["misses"], counts["stores"]) == \
            (1, 1, 1)
        assert counts["entries"] == 1

    def test_lru_eviction_order(self):
        cache = FabricCache(max_entries=2)
        cache.store("a", 1)
        cache.store("b", 2)
        cache.lookup("a")        # refresh a; b is now LRU
        cache.store("c", 3)
        assert cache.lookup("b") is None
        assert cache.lookup("a") == 1
        assert cache.lookup("c") == 3
        assert cache.counts()["evictions"] == 1

    def test_miss_demotes_a_counted_hit(self):
        cache = FabricCache()
        cache.store("k", "stale")
        cache.lookup("k")
        cache.miss()  # verification failed: the hit was no hit
        counts = cache.counts()
        assert (counts["hits"], counts["misses"]) == (0, 1)

    def test_validation_and_clear(self):
        with pytest.raises(ValueError, match="max_entries"):
            FabricCache(max_entries=0)
        cache = FabricCache()
        cache.store("k", 1)
        cache.clear()
        assert len(cache) == 0

    def test_activation_roundtrip(self):
        assert active_fabric_cache() is None
        cache = activate_fabric_cache()
        assert active_fabric_cache() is cache
        deactivate_fabric_cache()
        assert active_fabric_cache() is None


class TestWarmFabricKey:
    def test_ideal_analog_spec_has_a_key(self):
        engine = Engine.from_spec(ANALOG)
        assert isinstance(engine, AnalogMVMEngine)
        key = engine.warm_fabric_key()
        assert key == f"analog_mvm/{ANALOG.structure_hash()}"

    def test_batch_variants_share_the_key(self):
        assert Engine.from_spec(ANALOG).warm_fabric_key() == \
            Engine.from_spec(ANALOG.replaced(batch=5)).warm_fabric_key()

    def test_seed_variants_split_the_key(self):
        assert Engine.from_spec(ANALOG).warm_fabric_key() != \
            Engine.from_spec(ANALOG.replaced(seed=8)).warm_fabric_key()

    def test_nonideal_specs_are_never_cached(self):
        nonideal = ANALOG.replaced(
            nonideality=ANALOG.nonideality.replaced(fault_rate=0.01))
        assert Engine.from_spec(nonideal).warm_fabric_key() is None

    def test_base_engine_declares_no_key(self):
        spec = ScenarioSpec(engine="mvp_batched", workload="database",
                            size=96, items=2, batch=4)
        assert Engine.from_spec(spec).warm_fabric_key() is None


class TestWarmExecution:
    def test_warm_rerun_bit_identical_to_cold(self):
        cold = Engine.from_spec(ANALOG).run()
        cache = activate_fabric_cache()
        first = Engine.from_spec(ANALOG).run()   # populates
        second = Engine.from_spec(ANALOG).run()  # reuses
        deactivate_fabric_cache()

        def comparable(result):
            data = result.to_dict()
            data["provenance"].pop("wall_seconds", None)
            return data

        assert comparable(first) == comparable(cold)
        assert comparable(second) == comparable(cold)
        counts = cache.counts()
        assert counts["stores"] == 1
        assert counts["hits"] >= 1

    def test_batch_variant_reuses_warm_template(self):
        cold = Engine.from_spec(ANALOG.replaced(batch=3)).run()
        cache = activate_fabric_cache()
        Engine.from_spec(ANALOG).run()
        warm = Engine.from_spec(ANALOG.replaced(batch=3)).run()
        data_warm, data_cold = warm.to_dict(), cold.to_dict()
        for data in (data_warm, data_cold):
            data["provenance"].pop("wall_seconds", None)
        assert data_warm == data_cold
        assert cache.counts()["hits"] >= 1

    def test_nonideal_run_ignores_the_active_cache(self):
        nonideal = ANALOG.replaced(
            nonideality=ANALOG.nonideality.replaced(fault_rate=0.05))
        cold = Engine.from_spec(nonideal).run()
        cache = activate_fabric_cache()
        warm = Engine.from_spec(nonideal).run()
        for result in (cold, warm):
            assert result.fidelity is not None
        data_warm, data_cold = warm.to_dict(), cold.to_dict()
        for data in (data_warm, data_cold):
            data["provenance"].pop("wall_seconds", None)
        assert data_warm == data_cold
        assert cache.counts()["stores"] == 0
        assert cache.counts()["hits"] == 0
