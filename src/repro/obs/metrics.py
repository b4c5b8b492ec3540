"""Unified metrics registry: counters, gauges, histograms, exposition.

One :class:`MetricsRegistry` holds labeled series -- get-or-create by
``registry.counter("pool_tasks_done_total", kind="window")`` -- and
freezes them into a plain JSON-able snapshot.  The serving components
(``Service``, ``WorkerPool``, ``ResultCache``) each own one registry
with a distinct metric-name prefix, and each one's ``metrics()`` method
returns its snapshot: the only way to read their counters, by series
name.  :func:`merge_snapshots` composes those per-component snapshots
into the one service-wide snapshot behind ``repro serve
--metrics-json``, refusing duplicate series so two components can never
silently shadow each other's numbers.

:class:`Histogram` is the log-bucket latency histogram behind
``service_time_seconds``.

:func:`render_prometheus` emits a Prometheus-style text exposition from
a snapshot, and :func:`exposition_problems` lints one (duplicate
series, malformed sample lines) for the CI obs-smoke job.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Mapping

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BOUNDS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "exposition_problems",
    "merge_snapshots",
    "render_prometheus",
    "series_name",
]

#: Histogram bucket upper bounds, seconds: half-decade log spacing from
#: 100 microseconds to 100 seconds, plus the +inf overflow bucket.
#: Thirteen buckets resolve the interesting range (sub-ms cache hits to
#: multi-second sharded runs) while keeping snapshots tiny.
DEFAULT_LATENCY_BOUNDS = (1e-4, 3.16e-4, 1e-3, 3.16e-3, 1e-2, 3.16e-2,
                          1e-1, 3.16e-1, 1.0, 3.16, 10.0, 31.6, 100.0,
                          float("inf"))


class Counter:
    """A monotonically increasing count (int-preserving for int incs)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int | float:
        return self._value


class Gauge:
    """A value that can go up, down, or be set outright."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def set(self, value: int | float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: int | float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: int | float = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> int | float:
        return self._value


class Histogram:
    """A fixed-bucket log histogram of durations in seconds.

    Not thread-safe by itself; the owning component serializes access
    (the registry hands out the same instance for the same series, so
    one owner's lock covers it).
    """

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_LATENCY_BOUNDS
                 ) -> None:
        if not bounds or bounds[-1] != float("inf"):
            raise ValueError("histogram bounds must end with +inf")
        self.bounds = tuple(bounds)
        self._counts = [0] * len(self.bounds)
        self.count = 0
        self.total_seconds = 0.0
        self.min_seconds = float("inf")
        self.max_seconds = 0.0

    def observe(self, seconds: float) -> None:
        seconds = max(0.0, float(seconds))
        self._counts[bisect.bisect_left(self.bounds, seconds)] += 1
        self.count += 1
        self.total_seconds += seconds
        self.min_seconds = min(self.min_seconds, seconds)
        self.max_seconds = max(self.max_seconds, seconds)

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile estimate (bucket upper bound; 0 if empty).

        Quantiles from log buckets are estimates resolved to the bucket
        edge -- honest to within the half-decade bucket width, which is
        the right fidelity for queue-health dashboards (and avoids
        pretending microsecond precision survives bucketing).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for bound, count in zip(self.bounds, self._counts):
            seen += count
            if seen >= rank:
                return min(bound, self.max_seconds)
        return self.max_seconds

    def to_dict(self) -> dict[str, Any]:
        buckets = {
            f"le_{bound:g}": count
            for bound, count in zip(self.bounds, self._counts)
            if count
        }
        return {
            "count": self.count,
            "mean_seconds": self.mean_seconds,
            "min_seconds": 0.0 if self.count == 0 else self.min_seconds,
            "max_seconds": self.max_seconds,
            "p50_seconds": self.quantile(0.50),
            "p95_seconds": self.quantile(0.95),
            "p99_seconds": self.quantile(0.99),
            "buckets": buckets,
        }


def series_name(name: str, labels: Mapping[str, Any]) -> str:
    """The canonical series key: ``name{k="v",...}`` with sorted keys."""
    if not labels:
        return name
    rendered = ",".join(
        f'{key}="{labels[key]}"' for key in sorted(labels))
    return f"{name}{{{rendered}}}"


class MetricsRegistry:
    """Get-or-create home of labeled metric series.

    The same ``(name, labels)`` always yields the same metric object;
    asking for an existing series as a different kind raises, so a
    counter can never silently alias a gauge.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._series: dict[str, tuple[str, Any]] = {}

    def _get_or_create(self, kind: str, name: str,
                       labels: Mapping[str, Any], factory) -> Any:
        series = series_name(name, labels)
        with self._lock:
            existing = self._series.get(series)
            if existing is not None:
                have_kind, metric = existing
                if have_kind != kind:
                    raise ValueError(
                        f"series {series!r} already registered as "
                        f"{have_kind}, requested as {kind}")
                return metric
            metric = factory()
            self._series[series] = (kind, metric)
            return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create("counter", name, labels, Counter)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get_or_create("gauge", name, labels, Gauge)

    def histogram(self, name: str,
                  bounds: tuple[float, ...] | None = None,
                  **labels: Any) -> Histogram:
        make = (Histogram if bounds is None
                else (lambda: Histogram(bounds)))
        return self._get_or_create("histogram", name, labels, make)

    def snapshot(self) -> dict[str, Any]:
        """Freeze every series into a plain JSON-able mapping."""
        with self._lock:
            items = sorted(self._series.items())
        counters: dict[str, Any] = {}
        gauges: dict[str, Any] = {}
        histograms: dict[str, Any] = {}
        for series, (kind, metric) in items:
            if kind == "counter":
                counters[series] = metric.value
            elif kind == "gauge":
                gauges[series] = metric.value
            else:
                histograms[series] = metric.to_dict()
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}


def merge_snapshots(*snapshots: Mapping[str, Any]) -> dict[str, Any]:
    """Compose per-component snapshots into one; duplicates are errors.

    Components prefix their metric names (``service_*``, ``pool_*``,
    ``result_cache_*``), so a collision means two components claim the
    same series -- a wiring bug worth failing loudly on.
    """
    merged: dict[str, dict[str, Any]] = {
        "counters": {}, "gauges": {}, "histograms": {}}
    duplicates: list[str] = []
    for snapshot in snapshots:
        for kind in merged:
            for series, value in snapshot.get(kind, {}).items():
                if series in merged[kind]:
                    duplicates.append(series)
                else:
                    merged[kind][series] = value
    if duplicates:
        raise ValueError(
            "duplicate metric series across snapshots: "
            + ", ".join(sorted(set(duplicates))))
    return merged


def _split_series(series: str) -> tuple[str, str]:
    """``name{labels}`` -> (name, 'k="v",...'); no labels -> (name, '')."""
    if "{" in series and series.endswith("}"):
        name, _, rest = series.partition("{")
        return name, rest[:-1]
    return series, ""


def _bucket_sort_key(le: str) -> float:
    return float("inf") if le == "inf" else float(le)


def render_prometheus(snapshot: Mapping[str, Any]) -> str:
    """A Prometheus-style text exposition of one (merged) snapshot.

    Counters and gauges render directly; histograms expand into
    cumulative ``_bucket{le=...}`` samples plus ``_sum``/``_count``.
    """
    lines: list[str] = []
    for series, value in snapshot.get("counters", {}).items():
        name = _split_series(series)[0]
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{series} {value}")
    for series, value in snapshot.get("gauges", {}).items():
        name = _split_series(series)[0]
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{series} {value}")
    for series, data in snapshot.get("histograms", {}).items():
        name, labels = _split_series(series)
        lines.append(f"# TYPE {name} histogram")
        les = sorted(
            (key[len("le_"):] for key in data.get("buckets", {})),
            key=_bucket_sort_key)
        cumulative = 0
        for le in les:
            cumulative += data["buckets"][f"le_{le}"]
            bucket_labels = f'{labels},le="{le}"' if labels else f'le="{le}"'
            lines.append(f"{name}_bucket{{{bucket_labels}}} {cumulative}")
        suffix = f"{{{labels}}}" if labels else ""
        lines.append(
            f"{name}_sum{suffix} "
            f"{data.get('count', 0) * data.get('mean_seconds', 0.0)}")
        lines.append(f"{name}_count{suffix} {data.get('count', 0)}")
    return "\n".join(lines) + "\n"


def exposition_problems(text: str) -> list[str]:
    """Lint an exposition: duplicate series and malformed sample lines.

    Used by the CI obs-smoke job; an empty list means clean.
    """
    problems: list[str] = []
    seen: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.rpartition(" ")
        if not head:
            problems.append(f"line {lineno}: sample without a value")
            continue
        try:
            float(rest)
        except ValueError:
            problems.append(
                f"line {lineno}: non-numeric sample value {rest!r}")
            continue
        if head in seen:
            problems.append(f"line {lineno}: duplicate series {head}")
        seen.add(head)
    return problems
