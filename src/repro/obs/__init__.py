"""Unified observability layer: span tracing, metrics, convergence telemetry.

Three pieces, all stdlib-only (importable from any subsystem without new
dependencies or import cycles):

* :mod:`repro.obs.trace` — hierarchical span tracer with a zero-cost
  disabled path, emitting schema-versioned ``repro-trace/1`` JSONL;
* :mod:`repro.obs.metrics` — thread-safe counters / gauges / bounded
  ring-buffer histograms behind one :class:`Metrics` registry, with
  Prometheus text exposition;
* :mod:`repro.obs.traceview` — the ``repro trace-view`` summarizer.

The invariant every hook in this package obeys: observability never
perturbs results.  Hooks read scheduler state, never advance an RNG, and no
timing field reaches deterministic ``SolveResult`` output.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".metrics": (
        "Counter",
        "Gauge",
        "Histogram",
        "Metrics",
        "percentiles",
        "render_prometheus",
    ),
    ".trace": (
        "NOOP_SPAN",
        "TRACE_SCHEMA",
        "Span",
        "Tracer",
        "active",
        "annotate",
        "enabled",
        "event",
        "install",
        "read_trace",
        "span",
        "tracing",
        "uninstall",
        "validate_trace",
    ),
    ".traceview": ("render_trace_summary", "summarize_trace"),
})
