"""ResultCache traffic counters: every load/store/prune path accounted.

The counters feed two consumers: the serving cache tier (merged into
``Service.metrics()``) and ``repro cache prune --verbose``.
This suite drives each counting path -- plain hits and misses, corrupt
and version-stale entries, hash-collision mismatches, stores and prune
evictions -- and pins the arithmetic.
"""

import json

import pytest

import repro
from repro.api import Engine, ScenarioSpec
from repro.parallel import ResultCache

SPEC = ScenarioSpec(engine="mvp_batched", workload="database", size=96,
                    items=2, batch=4, seed=3)


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


@pytest.fixture(scope="module")
def result():
    return Engine.from_spec(SPEC).run()


def counters(cache) -> dict:
    return cache.metrics()["counters"]


NOTHING = {f"result_cache_{name}_total": 0
           for name in ("hits", "misses", "stores", "evictions",
                        "corrupt_dropped", "stale_dropped")}


def test_fresh_cache_counts_nothing(cache):
    assert counters(cache) == NOTHING


def test_miss_store_hit_roundtrip(cache, result):
    assert cache.load(SPEC) is None
    cache.store(result)
    assert cache.load(SPEC) is not None
    stats = counters(cache)
    assert stats["result_cache_misses_total"] == 1
    assert stats["result_cache_stores_total"] == 1
    assert stats["result_cache_hits_total"] == 1


def test_corrupt_entry_counts_corrupt_dropped(cache, result):
    path = cache.store(result)
    path.write_text("{ not json")
    assert cache.load(SPEC) is None
    stats = counters(cache)
    assert stats["result_cache_corrupt_dropped_total"] == 1
    assert stats["result_cache_misses_total"] == 1
    assert not path.exists()  # corruption is deleted, not kept


def test_schema_mismatch_counts_corrupt_dropped(cache, result):
    path = cache.store(result)
    payload = json.loads(path.read_text())
    payload["schema"] = "someone-elses-schema"
    path.write_text(json.dumps(payload))
    assert cache.load(SPEC) is None
    assert counters(cache)["result_cache_corrupt_dropped_total"] == 1


def test_version_stale_entry_counts_stale_dropped(cache, result):
    path = cache.store(result)
    payload = json.loads(path.read_text())
    payload["result"]["provenance"]["repro_version"] = "0.0.0-before"
    path.write_text(json.dumps(payload))
    assert cache.load(SPEC) is None
    stats = counters(cache)
    assert stats["result_cache_stale_dropped_total"] == 1
    assert stats["result_cache_corrupt_dropped_total"] == 0
    assert stats["result_cache_misses_total"] == 1
    assert path.exists()  # stale is not corruption: left for overwrite


def test_spec_mismatch_is_a_plain_miss(cache, result):
    path = cache.store(result)
    payload = json.loads(path.read_text())
    payload["spec"]["seed"] = 999  # simulated hash collision
    path.write_text(json.dumps(payload))
    assert cache.load(SPEC) is None
    stats = counters(cache)
    assert stats["result_cache_misses_total"] == 1
    assert stats["result_cache_corrupt_dropped_total"] == 0
    assert stats["result_cache_stale_dropped_total"] == 0


def test_prune_counts_evictions(cache, result):
    cache.store(result)
    other = Engine.from_spec(SPEC.replaced(seed=4)).run()
    cache.store(other)
    prune = cache.prune(max_entries=1)
    assert prune.removed == 1
    assert counters(cache)["result_cache_evictions_total"] == 1
    assert counters(cache)["result_cache_stores_total"] == 2


def test_capped_store_counts_automatic_evictions(tmp_path, result):
    capped = ResultCache(tmp_path / "cache", max_entries=1)
    capped.store(result)
    capped.store(Engine.from_spec(SPEC.replaced(seed=4)).run())
    assert counters(capped)["result_cache_evictions_total"] >= 1


def test_counters_are_per_instance(tmp_path, result):
    first = ResultCache(tmp_path / "cache")
    first.store(result)
    second = ResultCache(tmp_path / "cache")
    assert counters(second) == NOTHING
    assert second.load(SPEC) is not None
    assert counters(second)["result_cache_hits_total"] == 1


def test_cli_prune_verbose_prints_counters(tmp_path, result, capsys):
    from repro.api.cli import main

    cache_dir = tmp_path / "cache"
    ResultCache(cache_dir).store(result)
    code = main(["cache", "prune", str(cache_dir), "--max-entries", "1",
                 "--verbose"])
    out = capsys.readouterr().out
    assert code == 0
    assert "counters:" in out
    assert "result_cache_evictions_total=0" in out
    assert "result_cache_hits_total=0" in out
