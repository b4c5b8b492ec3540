"""Regression tests for the centralized RNG plumbing.

``spec.seed`` is the single entropy root: batch-wide artifacts draw
from ``shared_rng`` child streams and per-item artifacts from
``item_rng(index)`` streams (both SeedSequence spawn keys under the
seed), with *no* generator shared sequentially across artifacts.  These
tests pin the properties that derivation exists to provide:

* windowed adapters generate exactly the full batch's slice;
* artifact content is independent of cached-property touch order (the
  failure mode sequential shared generators exhibit);
* items are distinct and seed-sensitive (streams did not degenerate).
"""

import numpy as np
import pytest

from repro.api import ScenarioSpec, adapter_for
from repro.api.workloads import ScenarioError

AP_SPECS = [
    ScenarioSpec(engine="rram_ap", workload="dna", size=200, items=2,
                 batch=5, seed=11),
    ScenarioSpec(engine="rram_ap", workload="networking", size=160,
                 items=3, batch=5, seed=12),
    ScenarioSpec(engine="rram_ap", workload="strings", size=64, items=3,
                 batch=5, seed=13),
    ScenarioSpec(engine="rram_ap", workload="datamining", size=24,
                 items=3, batch=5, seed=14),
]

_IDS = "{0.workload}".format

DB_SPEC = ScenarioSpec(engine="mvp_batched", workload="database",
                       size=48, items=3, batch=5, seed=15)


class TestWindowsReproduceTheFullBatch:
    @pytest.mark.parametrize("spec", AP_SPECS, ids=_IDS)
    def test_every_single_item_window_matches_its_slice(self, spec):
        full_streams = adapter_for(spec, "rram_ap").streams()
        assert len(full_streams) == spec.batch
        for k in range(spec.batch):
            window = adapter_for(spec, "rram_ap", window=(k, 1))
            assert window.streams() == [full_streams[k]]

    @pytest.mark.parametrize("spec", AP_SPECS, ids=_IDS)
    def test_multi_item_windows_match_their_slices(self, spec):
        full_streams = adapter_for(spec, "rram_ap").streams()
        for offset, count in [(0, 2), (1, 3), (3, 2), (0, spec.batch)]:
            window = adapter_for(spec, "rram_ap",
                                 window=(offset, count))
            assert window.streams() \
                == full_streams[offset:offset + count]

    def test_database_window_tables_match_their_slices(self):
        full = adapter_for(DB_SPEC, "mvp_batched")
        for k in range(DB_SPEC.batch):
            window = adapter_for(DB_SPEC, "mvp_batched", window=(k, 1))
            np.testing.assert_array_equal(
                window._columns[0], full._columns[k])

    def test_database_shared_queries_are_window_free(self):
        full = adapter_for(DB_SPEC, "mvp_batched")
        window = adapter_for(DB_SPEC, "mvp_batched", window=(2, 2))
        assert window._queries == full._queries

    @pytest.mark.parametrize("window", [(-1, 2), (0, 0), (4, 3), (5, 1)])
    def test_ill_fitting_windows_are_rejected(self, window):
        with pytest.raises(ScenarioError, match="window"):
            adapter_for(DB_SPEC, "mvp_batched", window=window)


class TestTouchOrderIndependence:
    def test_database_artifacts_ignore_property_touch_order(self):
        """The historical hazard of one sequentially-shared generator:
        whichever cached property is touched first consumes the stream
        and changes the other artifact.  Child streams remove it."""
        tables_first = adapter_for(DB_SPEC, "mvp_batched")
        tables_first._columns  # noqa: B018 - touch order is the test
        tables_first._queries

        queries_first = adapter_for(DB_SPEC, "mvp_batched")
        queries_first._queries
        queries_first._columns

        assert tables_first._queries == queries_first._queries
        np.testing.assert_array_equal(tables_first._columns,
                                      queries_first._columns)

    def test_networking_rules_ignore_payload_touch_order(self):
        spec = AP_SPECS[1]
        payloads_first = adapter_for(spec, "rram_ap")
        payloads_first._payloads
        rules_a = [r.example for r in payloads_first._rules]

        rules_first = adapter_for(spec, "rram_ap")
        rules_b = [r.example for r in rules_first._rules]
        assert rules_a == rules_b
        assert payloads_first._payloads == rules_first._payloads


class TestStreamSeparation:
    @pytest.mark.parametrize("spec", AP_SPECS, ids=_IDS)
    def test_items_are_mutually_distinct(self, spec):
        streams = adapter_for(spec, "rram_ap").streams()
        assert len(set(streams)) == len(streams)

    @pytest.mark.parametrize("spec", AP_SPECS, ids=_IDS)
    def test_seed_moves_every_item_stream(self, spec):
        a = adapter_for(spec, "rram_ap").streams()
        b = adapter_for(spec.replaced(seed=spec.seed + 1),
                        "rram_ap").streams()
        assert all(x != y for x, y in zip(a, b))

    def test_item_rng_is_window_independent(self):
        full = adapter_for(DB_SPEC, "mvp_batched")
        window = adapter_for(DB_SPEC, "mvp_batched", window=(2, 2))
        np.testing.assert_array_equal(
            full.item_rng(3).integers(0, 1000, 16),
            window.item_rng(3).integers(0, 1000, 16),
        )

    def test_item_rng_rejects_out_of_batch_indices(self):
        adapter = adapter_for(DB_SPEC, "mvp_batched")
        with pytest.raises(ScenarioError, match="out of range"):
            adapter.item_rng(DB_SPEC.batch)

    def test_item_and_shared_axes_do_not_collide(self):
        """shared_rng(k) and item_rng(k) sit on different spawn-key
        axes; identical indices must still give independent streams."""
        adapter = adapter_for(DB_SPEC, "mvp_batched")
        shared = adapter.shared_rng(0).integers(0, 1000, 16)
        item = adapter.item_rng(0).integers(0, 1000, 16)
        assert not np.array_equal(shared, item)

    def test_fresh_generator_per_call_no_shared_state(self):
        """item_rng hands out a *fresh* generator each call: consuming
        one caller's stream cannot perturb another's."""
        adapter = adapter_for(DB_SPEC, "mvp_batched")
        first = adapter.item_rng(1)
        first.integers(0, 1000, 64)  # burn state on one handle
        np.testing.assert_array_equal(
            adapter.item_rng(1).integers(0, 1000, 16),
            adapter_for(DB_SPEC, "mvp_batched")
            .item_rng(1).integers(0, 1000, 16),
        )
