"""Metrics registry: series identity, snapshots, merging, exposition."""

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exposition_problems,
    merge_snapshots,
    render_prometheus,
    series_name,
)


class TestPrimitives:
    def test_counter_monotone(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_counter_int_preserving(self):
        c = Counter()
        c.inc(2)
        c.inc(3)
        assert c.value == 5 and isinstance(c.value, int)

    def test_gauge_moves_both_ways(self):
        g = Gauge()
        g.set(10)
        g.dec(4)
        g.inc()
        assert g.value == 7

    def test_histogram_stats(self):
        h = Histogram()
        for seconds in (0.0005, 0.002, 0.002, 1.5):
            h.observe(seconds)
        assert h.count == 4
        assert h.mean_seconds == pytest.approx(
            (0.0005 + 0.002 + 0.002 + 1.5) / 4)
        assert h.min_seconds == 0.0005
        assert h.max_seconds == 1.5
        assert h.quantile(0.5) <= h.quantile(0.95) <= h.max_seconds
        data = h.to_dict()
        assert data["count"] == 4
        assert sum(data["buckets"].values()) == 4

    def test_histogram_bounds_must_end_inf(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(0.1, 1.0))

    def test_histogram_quantile_domain(self):
        h = Histogram()
        with pytest.raises(ValueError):
            h.quantile(1.5)
        assert h.quantile(0.99) == 0.0  # empty

    def test_histogram_empty(self):
        h = Histogram()
        assert h.count == 0
        assert h.mean_seconds == 0.0
        assert h.quantile(0.5) == 0.0
        data = h.to_dict()
        assert data["count"] == 0
        assert data["buckets"] == {}
        assert data["min_seconds"] == 0.0

    def test_histogram_observations_land_in_log_buckets(self):
        h = Histogram()
        for seconds in (0.0002, 0.0002, 0.05, 2.0):
            h.observe(seconds)
        data = h.to_dict()
        assert data["count"] == 4
        assert data["buckets"]["le_0.000316"] == 2
        assert data["buckets"]["le_0.1"] == 1
        assert data["buckets"]["le_3.16"] == 1
        assert data["max_seconds"] == 2.0
        assert data["mean_seconds"] == pytest.approx(2.0504 / 4)

    def test_histogram_quantiles_are_bucket_bounds_clamped_to_max(self):
        h = Histogram()
        for _ in range(99):
            h.observe(0.002)
        h.observe(0.5)
        assert h.quantile(0.5) == pytest.approx(0.00316)
        # The last bucket's bound (1.0) exceeds the observed max: the
        # estimate clamps to the real maximum.
        assert h.quantile(1.0) == 0.5

    def test_histogram_quantile_validation_and_negative_clamp(self):
        h = Histogram()
        with pytest.raises(ValueError, match="quantile"):
            h.quantile(1.5)
        h.observe(-3.0)  # clock skew: clamped, never negative
        assert h.min_seconds == 0.0

    def test_histogram_overflow_bucket(self):
        h = Histogram()
        h.observe(5000.0)
        assert h.to_dict()["buckets"]["le_inf"] == 1

    def test_default_bounds_shape(self):
        assert DEFAULT_LATENCY_BOUNDS[-1] == float("inf")
        assert list(DEFAULT_LATENCY_BOUNDS) == \
            sorted(DEFAULT_LATENCY_BOUNDS)


class TestRegistry:
    def test_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("hits_total", kind="a") is \
            reg.counter("hits_total", kind="a")
        assert reg.counter("hits_total", kind="b") is not \
            reg.counter("hits_total", kind="a")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("depth")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("depth")

    def test_series_name_sorts_labels(self):
        assert series_name("m", {"b": 2, "a": 1}) == 'm{a="1",b="2"}'
        assert series_name("m", {}) == "m"

    def test_snapshot_is_jsonable_and_sorted(self):
        reg = MetricsRegistry()
        reg.counter("z_total").inc(3)
        reg.counter("a_total").inc(1)
        reg.gauge("depth").set(2)
        reg.histogram("latency_seconds").observe(0.01)
        snap = reg.snapshot()
        json.dumps(snap)  # plain data, no custom types
        assert list(snap["counters"]) == ["a_total", "z_total"]
        assert snap["gauges"] == {"depth": 2}
        assert snap["histograms"]["latency_seconds"]["count"] == 1


class TestMergeSnapshots:
    def test_disjoint_components_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("service_requests_total").inc(4)
        b.counter("pool_tasks_done_total").inc(2)
        b.gauge("pool_workers_alive").set(2)
        merged = merge_snapshots(a.snapshot(), b.snapshot())
        assert merged["counters"] == {"service_requests_total": 4,
                                      "pool_tasks_done_total": 2}
        assert merged["gauges"] == {"pool_workers_alive": 2}

    def test_duplicate_series_refused(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("shared_total").inc()
        b.counter("shared_total").inc()
        with pytest.raises(ValueError, match="shared_total"):
            merge_snapshots(a.snapshot(), b.snapshot())


class TestExposition:
    def _snapshot(self):
        reg = MetricsRegistry()
        reg.counter("requests_total", outcome="completed").inc(5)
        reg.gauge("queue_depth").set(3)
        hist = reg.histogram("latency_seconds")
        for seconds in (0.0002, 0.003, 0.003, 0.2):
            hist.observe(seconds)
        return reg.snapshot()

    def test_render_prometheus_shape(self):
        text = render_prometheus(self._snapshot())
        assert '# TYPE requests_total counter' in text
        assert 'requests_total{outcome="completed"} 5' in text
        assert "# TYPE queue_depth gauge" in text
        assert "latency_seconds_count 4" in text
        # Bucket samples are cumulative.
        counts = [int(line.rsplit(" ", 1)[1])
                  for line in text.splitlines()
                  if line.startswith("latency_seconds_bucket")]
        assert counts == sorted(counts)
        assert counts[-1] == 4

    def test_exposition_lints_clean(self):
        assert exposition_problems(
            render_prometheus(self._snapshot())) == []

    def test_duplicate_series_flagged(self):
        problems = exposition_problems("a_total 1\na_total 2\n")
        assert any("duplicate series" in p for p in problems)

    def test_non_numeric_value_flagged(self):
        problems = exposition_problems("a_total banana\n")
        assert any("non-numeric" in p for p in problems)
