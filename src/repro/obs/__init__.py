"""Unified telemetry: span tracing, metrics registry, exporters.

The observability subsystem is deliberately *zero-perturbation*: it
never touches RNG state, never feeds anything into spec hashing, and a
disabled tracer costs one module-global ``None`` check per
instrumentation site.  Every clock read in the repository (outside the
bench harness) flows through this package -- enforced by reprolint rule
R007 -- so timing policy lives in exactly one place.

Three pillars:

* :mod:`repro.obs.trace` -- nested span tracing with a process-global
  activation switch (``activate_tracer`` / ``span`` / ``deactivate_tracer``)
  and cross-process stitching (:meth:`Tracer.adopt`) for worker-side
  spans shipped back over result queues.
* :mod:`repro.obs.metrics` -- counters/gauges/histograms with labeled
  series behind one :class:`MetricsRegistry`; the serving, pool and
  cache counters live there and are read by series name.
* :mod:`repro.obs.export` / :mod:`repro.obs.summary` -- JSON-lines span
  logs, Chrome ``trace_event`` files (loadable in Perfetto or
  about:tracing), Prometheus-style text exposition, and the per-stage
  time table behind ``repro trace summarize``.
"""

from repro.obs.export import (
    read_spans,
    to_chrome_trace,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exposition_problems,
    merge_snapshots,
    render_prometheus,
)
from repro.obs.summary import render_summary, summarize_spans
from repro.obs.trace import (
    SpanRecord,
    Tracer,
    activate_tracer,
    active_tracer,
    deactivate_tracer,
    span,
    traced,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanRecord",
    "Tracer",
    "activate_tracer",
    "active_tracer",
    "deactivate_tracer",
    "exposition_problems",
    "merge_snapshots",
    "read_spans",
    "render_prometheus",
    "render_summary",
    "span",
    "summarize_spans",
    "to_chrome_trace",
    "traced",
    "write_chrome_trace",
    "write_spans_jsonl",
]
