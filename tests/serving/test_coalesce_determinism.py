"""Served determinism: concurrent submissions == serial engine runs.

The serving contract inherited from the parallel layer: a burst of N
concurrent ``Service.submit`` calls must return results bit-identical
to N serial ``Engine.from_spec(spec).run()`` calls -- outputs,
CostSummary, per-item cost records, FidelitySummary and
AccuracySummary included.  Each request runs as its own pool task
(never spec merging), so these suites are the proof that no stage of
the request path -- dedup, cache tier, warm workers -- perturbs a
result.
"""

import asyncio

import pytest

from repro.api import Engine, ScenarioSpec
from repro.serving import Service, serve_all

MVP = ScenarioSpec(engine="mvp_batched", workload="database", size=96,
                   items=2, batch=5, seed=3)
ANALOG = ScenarioSpec(engine="analog_mvm", workload="mlp_inference",
                      batch=2, seed=7)
NONIDEAL = ScenarioSpec(engine="mvp_batched", workload="database",
                        size=96, items=2, batch=4, seed=5).replaced(
    nonideality=ScenarioSpec().nonideality.replaced(fault_rate=0.01))


def comparable(result) -> dict:
    data = result.to_dict()
    data["provenance"].pop("wall_seconds", None)
    return data


def submit_all(specs, **service_kwargs):
    kwargs = {"workers": 2, "pool_mode": "inline"}
    kwargs.update(service_kwargs)

    async def main():
        async with Service(**kwargs) as service:
            results = await serve_all(service, specs)
            return results, service.stats()

    return asyncio.run(main())


@pytest.mark.parametrize("base", [MVP, ANALOG, NONIDEAL],
                         ids=["mvp", "analog", "nonideal"])
def test_coalesced_batch_bit_identical_to_serial(base):
    specs = [base.replaced(seed=base.seed + i) for i in range(6)]
    serial = [Engine.from_spec(spec).run() for spec in specs]
    concurrent, stats = submit_all(specs)
    for got, want in zip(concurrent, serial):
        assert comparable(got) == comparable(want)
        assert got.cost == want.cost
        assert got.item_costs == want.item_costs
        assert got.fidelity == want.fidelity
        assert got.accuracy == want.accuracy
    assert stats.completed == len(specs)


def test_forked_pool_is_equally_bit_identical():
    specs = [ANALOG.replaced(seed=i) for i in range(4)]
    serial = [Engine.from_spec(spec).run() for spec in specs]
    concurrent, stats = submit_all(specs, pool_mode="fork")
    for got, want in zip(concurrent, serial):
        assert comparable(got) == comparable(want)
    assert stats.errors == 0


def test_identical_inflight_specs_dedup_to_one_dispatch():
    specs = [MVP] * 5

    async def main():
        async with Service(workers=1, pool_mode="inline") as service:
            results = await asyncio.gather(
                *(service.submit(spec) for spec in specs))
            return results, service.stats()

    results, stats = asyncio.run(main())
    want = comparable(Engine.from_spec(MVP).run())
    assert all(comparable(r) == want for r in results)
    assert stats.deduped == 4
    assert stats.dispatched_requests == 1


def test_cache_tier_replays_previous_results(tmp_path):
    specs = [MVP.replaced(seed=i) for i in range(3)]
    cold, cold_stats = submit_all(specs, cache=str(tmp_path / "cache"))
    warm, warm_stats = submit_all(specs, cache=str(tmp_path / "cache"))
    assert cold_stats.cache_hits == 0
    assert warm_stats.cache_hits == 3
    assert warm_stats.dispatches == 0  # no worker touched
    for a, b in zip(cold, warm):
        da, db = a.to_dict(), b.to_dict()
        # The replay is the stored computation verbatim; only the cache
        # marker differs (the hit moves the producer's wall time under
        # provenance.cache.producer).
        for d in (da, db):
            d["provenance"].pop("cache", None)
            d["provenance"].pop("wall_seconds", None)
        assert da == db
