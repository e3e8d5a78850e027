"""Phase-level observability: one recorder, its documents, baselines.

The paper's evaluation is built on knowing *where time goes* — per-phase
splits (Figure 7), pruning rates (the flag-based pruning optimization),
aggregation tolerance effects — and the reproduction needs the same
signals as first-class, machine-readable data rather than ad-hoc bench
prints.  Instrumented code writes every fact once, to one
:class:`~repro.observability.recorder.Recorder` (or to the disabled
:data:`~repro.observability.recorder.NULL_RECORDER`), and each document
is a projection of its event record:

- :mod:`repro.observability.tracer` — the span tree (run → pass → phase)
  with counters and ordered series (``repro.trace/2``);
- :mod:`repro.observability.profiler` — the thread timeline of the
  simulated runtime and its Chrome trace-event view
  (``repro.profile/1``), with :mod:`repro.observability.profile_report`
  rendering its text report;
- :mod:`repro.observability.metrics` — counter/gauge/histogram families
  with bounded label cardinality and byte-deterministic Prometheus and
  JSON (``repro.metrics/1``) exposition;
- :mod:`repro.observability.memtrack` — logical allocation watermarks
  (``repro.memory/1``) and their Chrome lane;
- :mod:`repro.observability.regression` — the baselines under
  ``benchmarks/baselines/`` and the comparison logic behind ``repro
  bench --check``, plus the trace-diff helpers.

``repro run --record DIR`` and ``repro serve --record DIR`` write every
document of one recorded run into ``DIR`` (:func:`repro.cli.write_record`).
"""

from repro.observability.recorder import (
    NULL_RECORDER,
    Recorder,
    activate,
    active,
)

__all__ = ["NULL_RECORDER", "Recorder", "activate", "active"]
