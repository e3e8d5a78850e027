"""Phase-level observability: tracing spans, runtime counters, baselines.

The paper's evaluation is built on knowing *where time goes* — per-phase
splits (Figure 7), pruning rates (the flag-based pruning optimization),
aggregation tolerance effects — and the reproduction needs the same
signals as first-class, machine-readable data rather than ad-hoc bench
prints.  This package provides:

- :mod:`repro.observability.tracer` — nested spans (run → pass → phase)
  with attached counters and ordered series, recorded behind a
  zero-cost-when-disabled API (the
  :data:`~repro.observability.tracer.NULL_TRACER` singleton), and
  emitted as stable JSON (``repro.trace/2`` schema);
- :mod:`repro.observability.profiler` — the thread-timeline event log of
  the simulated runtime (per-thread chunk/atomic/barrier events on the
  simulated clock) with a Chrome trace-event exporter, behind the same
  zero-cost pattern (:data:`~repro.observability.profiler.NULL_PROFILER`);
- :mod:`repro.observability.profile_report` — critical-path, barrier-wait
  and load-imbalance attribution over a timeline, rendered as the
  deterministic ``repro profile`` text report;
- :mod:`repro.observability.metrics` — typed metric instruments
  (counter/gauge/histogram with bounded label cardinality) in a
  process-wide :class:`~repro.observability.metrics.MetricsRegistry`
  with byte-deterministic Prometheus and JSON (``repro.metrics/1``)
  exposition, behind the same zero-cost pattern
  (:data:`~repro.observability.metrics.NULL_REGISTRY`);
- :mod:`repro.observability.regression` — the baselines under
  ``benchmarks/baselines/`` (threshold-gated perf baselines and the
  exact-match :data:`~repro.observability.regression.GOLDEN_FAMILIES`)
  and the comparison logic behind ``repro bench --check``, the CI
  regression gate, plus the trace-diff helpers.
"""

from repro.observability.metrics import (
    METRICS_SCHEMA,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    bucket_percentile,
    exact_percentile,
    validate_prometheus,
)
from repro.observability.profiler import (
    NULL_PROFILER,
    PROFILE_SCHEMA,
    Profiler,
    Timeline,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.observability.tracer import (
    NULL_TRACER,
    TRACE_SCHEMA,
    Span,
    Tracer,
)

#: Symbols re-exported lazily from :mod:`repro.observability.regression`.
#: (Lazy because regression imports the core algorithm and the runtime,
#: while the runtime imports :mod:`repro.observability.tracer` — eager
#: package-level imports would form a cycle.)
_REGRESSION_EXPORTS = frozenset({
    "BASELINE_SCHEMA",
    "Baseline",
    "GOLDEN_FAMILIES",
    "GoldenFamily",
    "collect_leiden_metrics",
    "measure_metrics",
    "measure_service_metrics",
    "MetricCheck",
    "RunMetrics",
    "Thresholds",
    "compare_metrics",
    "default_baseline_dir",
    "diff_trace_docs",
    "format_checks",
    "format_trace_diff",
    "measure_experiment",
    "record_baselines",
    "run_check",
    "run_profile",
    "run_trace",
})


def __getattr__(name: str):
    if name in _REGRESSION_EXPORTS:
        from repro.observability import regression

        return getattr(regression, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "METRICS_SCHEMA",
    "NULL_PROFILER",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "PROFILE_SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "Profiler",
    "Span",
    "Timeline",
    "Tracer",
    "TRACE_SCHEMA",
    "bucket_percentile",
    "exact_percentile",
    "to_chrome_trace",
    "validate_chrome_trace",
    "validate_prometheus",
    "BASELINE_SCHEMA",
    "GOLDEN_FAMILIES",
    "GoldenFamily",
    "collect_leiden_metrics",
    "measure_metrics",
    "measure_service_metrics",
    "Baseline",
    "MetricCheck",
    "RunMetrics",
    "Thresholds",
    "compare_metrics",
    "default_baseline_dir",
    "diff_trace_docs",
    "format_checks",
    "format_trace_diff",
    "measure_experiment",
    "record_baselines",
    "run_check",
    "run_profile",
    "run_trace",
]
