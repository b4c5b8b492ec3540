"""Observability primitives: histograms, recorders, snapshots."""

import json

import pytest

from repro.serving import LatencyHistogram, PoolStats, StatsRecorder


class TestLatencyHistogram:
    def test_empty(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.mean_seconds == 0.0
        assert hist.quantile(0.5) == 0.0
        data = hist.to_dict()
        assert data["count"] == 0
        assert data["buckets"] == {}
        assert data["min_seconds"] == 0.0

    def test_observations_land_in_log_buckets(self):
        hist = LatencyHistogram()
        for seconds in (0.0002, 0.0002, 0.05, 2.0):
            hist.observe(seconds)
        data = hist.to_dict()
        assert data["count"] == 4
        assert data["buckets"]["le_0.000316"] == 2
        assert data["buckets"]["le_0.1"] == 1
        assert data["buckets"]["le_3.16"] == 1
        assert data["max_seconds"] == 2.0
        assert data["mean_seconds"] == pytest.approx(2.0504 / 4)

    def test_quantiles_are_bucket_bounds_clamped_to_max(self):
        hist = LatencyHistogram()
        for _ in range(99):
            hist.observe(0.002)
        hist.observe(0.5)
        assert hist.quantile(0.5) == pytest.approx(0.00316)
        # The last bucket's bound (1.0) exceeds the observed max: the
        # estimate clamps to the real maximum.
        assert hist.quantile(1.0) == 0.5

    def test_quantile_validation_and_negative_clamp(self):
        hist = LatencyHistogram()
        with pytest.raises(ValueError, match="quantile"):
            hist.quantile(1.5)
        hist.observe(-3.0)  # clock skew: clamped, never negative
        assert hist.min_seconds == 0.0

    def test_overflow_bucket(self):
        hist = LatencyHistogram()
        hist.observe(5000.0)
        assert hist.to_dict()["buckets"]["le_inf"] == 1


class TestStatsRecorder:
    def test_queue_depth_tracks_admission_and_settlement(self):
        rec = StatsRecorder()
        rec.admitted()
        rec.admitted()
        assert rec.queue_depth == 2
        rec.finished(ok=True, service_seconds=0.1)
        rec.settled_without_service()
        assert rec.queue_depth == 0
        snap = rec.snapshot()
        assert snap.peak_queue_depth == 2
        assert snap.completed == 1

    def test_snapshot_counts_every_stage(self):
        rec = StatsRecorder()
        for _ in range(4):
            rec.admitted()
        rec.cache_hit()
        rec.cache_miss()
        rec.deduped()
        rec.rejected()
        rec.dispatched()
        rec.finished(ok=True, service_seconds=0.2)
        rec.finished(ok=False, service_seconds=0.3)
        snap = rec.snapshot()
        assert snap.requests == 4
        assert snap.cache_hits == 1
        assert snap.cache_misses == 1
        assert snap.deduped == 1
        assert snap.rejected == 1
        assert snap.dispatches == 1
        assert snap.dispatched_requests == 1
        assert snap.errors == 1
        assert snap.service_time["count"] == 2
        assert rec.mean_service_seconds() == pytest.approx(0.25)


class TestServiceStats:
    def test_to_dict_is_json_serializable(self):
        snap = StatsRecorder().snapshot(pool=PoolStats(workers=2))
        text = json.dumps(snap.to_dict(), sort_keys=True)
        assert '"workers": 2' in text

    def test_render_mentions_every_stage(self):
        rendered = StatsRecorder().snapshot().render()
        for fragment in ("requests:", "cache tier:", "dispatches:",
                         "queue:", "latency:", "pool:", "warm fabric:"):
            assert fragment in rendered
        # No result cache attached: the optional line is absent.
        assert "result cache:" not in rendered
