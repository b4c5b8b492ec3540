"""Concurrent serving end to end: dedup, cache tier, warm pool.

Starts a :class:`repro.serving.Service` over a warm worker pool, fires
a burst of concurrent submissions at it -- seed variants that spread
across the workers as one pool task each, exact duplicates that dedup
onto in-flight twins, and a repeat wave answered entirely by the
result-cache tier -- then prints the ServiceStats snapshot showing what
each stage did.
Every served result is bit-identical to a plain
``Engine.from_spec(spec).run()`` call; the serving layer only changes
*when and where* runs execute, never what they compute.

Run with:
    PYTHONPATH=src python examples/serving_demo.py
"""

import asyncio
import tempfile

from repro.api import Engine, ScenarioSpec
from repro.serving import Service, serve_all

base = ScenarioSpec(engine="mvp_batched", workload="database",
                    size=1024, items=4, batch=16, seed=0)

# A mixed burst: 6 seed variants (one pool task each) plus 2 exact
# duplicates of the first (deduped in flight).
burst = [base.replaced(seed=seed) for seed in range(6)] + [base, base]


async def main() -> None:
    with tempfile.TemporaryDirectory() as cache_dir:
        async with Service(workers=2, cache=cache_dir,
                           max_queue=64) as service:
            results = await serve_all(service, burst)

            # The serving layer is invisible in the results: each one
            # is bit-identical to its plain engine run.
            check = Engine.from_spec(burst[0]).run()
            got, want = results[0].to_dict(), check.to_dict()
            for data in (got, want):
                data["provenance"].pop("wall_seconds", None)
            assert got == want, "served result differs from plain run"
            print(f"burst of {len(burst)} requests served; results "
                  "bit-identical to plain engine runs\n")

            # A second wave of the same specs never reaches a worker:
            # the cache tier answers everything.
            await serve_all(service, burst)

            print(service.stats().render())


if __name__ == "__main__":
    asyncio.run(main())
