"""Nested tracing spans and counters with a zero-cost disabled path.

A :class:`Tracer` records a tree of :class:`Span` objects — typically
``leiden → pass → phase`` — each holding wall-clock seconds, free-form
attributes, additive counters and min/max/sum observations.  The
instrumented code never checks "is tracing on?" for span entry: it calls
``runtime.tracer.span(...)`` and the disabled singleton
:data:`NULL_TRACER` answers with a shared no-op context manager.  Hot
loops that would have to *compute* something extra to feed a counter
guard on :attr:`Tracer.enabled` instead, so the disabled path costs one
attribute read.

The JSON emission (:meth:`Tracer.to_dict` / :meth:`Tracer.to_json`) is a
stable schema, versioned as :data:`TRACE_SCHEMA`; consumers (the CI
artifact, the regression harness, external tooling) key on it.  Schema
``repro.trace/2`` carries per-span **series** — ordered event sequences
such as the convergence monitor's per-iteration ΔQ — beside the
counters/stats/buckets.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional

# The power-of-two exponent-bucket machinery lives in the metrics module
# (its single home, shared with metric histograms so trace and metrics
# percentiles agree); re-exported here for compatibility.
from repro.observability.metrics import bucket_of as _bucket_of
from repro.observability.metrics import bucket_percentile

__all__ = ["TRACE_SCHEMA", "Span", "Tracer", "NullTracer", "NULL_TRACER",
           "bucket_percentile", "format_span_path"]

#: Version tag embedded in every emitted trace document.
TRACE_SCHEMA = "repro.trace/2"


class Span:
    """One timed region of the trace tree."""

    __slots__ = ("name", "attrs", "counters", "stats", "buckets", "series",
                 "children", "seconds", "_start")

    def __init__(self, name: str, attrs: Optional[dict] = None) -> None:
        self.name = name
        self.attrs: Dict[str, object] = dict(attrs) if attrs else {}
        self.counters: Dict[str, float] = {}
        self.stats: Dict[str, Dict[str, float]] = {}
        #: Power-of-two histogram per observed distribution, feeding the
        #: p50/p99 estimates in :meth:`Tracer.derived_metrics`.
        self.buckets: Dict[str, Dict[int, int]] = {}
        #: Ordered per-span event sequences (``repro.trace/2``): e.g. the
        #: convergence monitor's ΔQ per local-moving iteration.  Unlike
        #: counters these preserve order and individual values.
        self.series: Dict[str, List[float]] = {}
        self.children: List["Span"] = []
        self.seconds = 0.0
        self._start: Optional[float] = None

    def set(self, **attrs) -> None:
        """Attach attributes to the span (no-op on the null span)."""
        self.attrs.update(attrs)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + float(value)

    def observe(self, name: str, value: float) -> None:
        v = float(value)
        s = self.stats.get(name)
        if s is None:
            self.stats[name] = {"count": 1.0, "sum": v, "min": v, "max": v}
        else:
            s["count"] += 1.0
            s["sum"] += v
            if v < s["min"]:
                s["min"] = v
            if v > s["max"]:
                s["max"] = v
        hist = self.buckets.setdefault(name, {})
        b = _bucket_of(v)
        hist[b] = hist.get(b, 0) + 1

    def record(self, name: str, value: float) -> None:
        """Append one value to the ordered series ``name`` on this span."""
        self.series.setdefault(name, []).append(float(value))

    # -- aggregation ---------------------------------------------------------

    def counter_totals(self, into: Optional[Dict[str, float]] = None) -> Dict[str, float]:
        """Counters summed over this span and its whole subtree."""
        totals = {} if into is None else into
        for k, v in self.counters.items():
            totals[k] = totals.get(k, 0.0) + v
        for child in self.children:
            child.counter_totals(totals)
        return totals

    def bucket_totals(
        self, into: Optional[Dict[str, Dict[int, int]]] = None
    ) -> Dict[str, Dict[int, int]]:
        """Observation histograms merged over this span's subtree."""
        totals = {} if into is None else into
        for name, hist in self.buckets.items():
            merged = totals.setdefault(name, {})
            for exp, count in hist.items():
                merged[exp] = merged.get(exp, 0) + count
        for child in self.children:
            child.bucket_totals(totals)
        return totals

    def stats_totals(
        self, into: Optional[Dict[str, Dict[str, float]]] = None
    ) -> Dict[str, Dict[str, float]]:
        """Observation stats (count/sum/min/max) merged over the subtree.

        The exact-summary companion of :meth:`bucket_totals`, consumed by
        :meth:`repro.observability.metrics.MetricsRegistry.merge_tracer`
        so re-exported histograms keep exact sums rather than bucket
        estimates.
        """
        totals = {} if into is None else into
        for name, s in self.stats.items():
            merged = totals.get(name)
            if merged is None:
                totals[name] = dict(s)
            else:
                merged["count"] += s["count"]
                merged["sum"] += s["sum"]
                if s["min"] < merged["min"]:
                    merged["min"] = s["min"]
                if s["max"] > merged["max"]:
                    merged["max"] = s["max"]
        for child in self.children:
            child.stats_totals(totals)
        return totals

    def to_dict(self) -> dict:
        out: Dict[str, object] = {"name": self.name, "seconds": self.seconds}
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.stats:
            out["stats"] = {k: dict(v) for k, v in self.stats.items()}
        if self.buckets:
            out["buckets"] = {
                k: {str(exp): c for exp, c in sorted(v.items())}
                for k, v in self.buckets.items()
            }
        if self.series:
            out["series"] = {k: list(v) for k, v in self.series.items()}
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Span({self.name!r}, {self.seconds:.4f}s, "
                f"{len(self.children)} children)")


def format_span_path(spans) -> str:
    """Slash-joined label for a sequence of open spans.

    The single implementation behind :meth:`Tracer.span_path` and
    :meth:`NullTracer.span_path` (both used as profiler region labels by
    :mod:`repro.parallel.runtime`).  Spans carrying an ``index``
    attribute (the per-pass spans) embed it so repeated siblings stay
    distinguishable: ``leiden/pass[1]/local_move``.
    """
    parts = []
    for s in spans:
        idx = s.attrs.get("index")
        parts.append(f"{s.name}[{idx}]" if idx is not None else s.name)
    return "/".join(parts)


class Tracer:
    """Collects a span tree plus counters for one traced execution."""

    enabled = True

    def __init__(self) -> None:
        self.root = Span("trace")
        self._stack: List[Span] = [self.root]

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """Open a nested span; yields it so callers may :meth:`Span.set`.

        Exception-safe: if the body raises — including through spans it
        opened with :meth:`push` but never :meth:`pop`-ed — every span
        down to and including this one still records its ``seconds`` and
        closes, so the emitted trace never contains a half-open span.
        """
        s = Span(name, attrs)
        self._stack[-1].children.append(s)
        self._stack.append(s)
        s._start = perf_counter()
        try:
            yield s
        finally:
            self.unwind(s)

    def push(self, name: str, **attrs) -> Span:
        """Open a span without a ``with`` block (close via :meth:`pop`),
        for a span that outlives one lexical block."""
        s = Span(name, attrs)
        self._stack[-1].children.append(s)
        self._stack.append(s)
        s._start = perf_counter()
        return s

    def pop(self) -> None:
        """Close the innermost span opened by :meth:`push`."""
        if len(self._stack) <= 1:
            return
        s = self._stack.pop()
        if s._start is not None:
            s.seconds += perf_counter() - s._start
            s._start = None

    def unwind(self, span: Span) -> None:
        """Close every open span down to and including ``span``.

        The exception-safety primitive behind :meth:`span`: each popped
        span records its elapsed ``seconds`` exactly as a normal close
        would.  A no-op when ``span`` is not on the stack (already
        closed), so it is safe to call unconditionally in ``finally``.
        """
        if not any(s is span for s in self._stack):
            return
        while len(self._stack) > 1:
            top = self._stack.pop()
            if top._start is not None:
                top.seconds += perf_counter() - top._start
                top._start = None
            if top is span:
                break

    def count(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` on the innermost open span."""
        self._stack[-1].count(name, value)

    def observe(self, name: str, value: float) -> None:
        """Record one sample of distribution ``name`` on the open span."""
        self._stack[-1].observe(name, value)

    def record(self, name: str, value: float) -> None:
        """Append one value to series ``name`` on the innermost open span."""
        self._stack[-1].record(name, value)

    # -- inspection / emission ------------------------------------------------

    @property
    def current(self) -> Span:
        return self._stack[-1]

    def span_path(self) -> str:
        """Slash-joined path of the open spans, e.g. ``leiden/pass[1]/
        local_move`` — the region label the profiler attaches to events.

        Delegates to :func:`format_span_path` (shared with
        :class:`NullTracer` so there is exactly one formatting rule).
        """
        return format_span_path(self._stack[1:])

    def counter_totals(self) -> Dict[str, float]:
        """All counters, summed over the entire trace."""
        return self.root.counter_totals()

    def derived_metrics(self) -> Dict[str, float]:
        """Ratios from raw counters plus percentile estimates from the
        observation histograms.

        Every observed distribution ``name`` (fed through
        :meth:`observe` anywhere in the trace) contributes
        ``{name}_p50`` and ``{name}_p99`` — how the service latency
        histogram surfaces in ``repro trace`` output with no
        service-specific plumbing.
        """
        totals = self.counter_totals()
        out: Dict[str, float] = {}
        visited = totals.get("pruning_visited", 0.0)
        skipped = totals.get("pruning_skipped", 0.0)
        if visited + skipped > 0:
            out["pruning_hit_rate"] = skipped / (visited + skipped)
        regions = totals.get("parallel_regions", 0.0)
        if regions > 0:
            out["atomics_per_region"] = totals.get("atomic_ops", 0.0) / regions
            out["skew_units_per_region"] = (
                totals.get("clock_skew_units", 0.0) / regions
            )
        for name, hist in sorted(self.root.bucket_totals().items()):
            out[f"{name}_p50"] = bucket_percentile(hist, 50.0)
            out[f"{name}_p99"] = bucket_percentile(hist, 99.0)
        return out

    def to_dict(self, **meta) -> dict:
        """The trace as a JSON-ready document (``repro.trace/2``)."""
        return {
            "schema": TRACE_SCHEMA,
            "meta": meta,
            "counters": self.counter_totals(),
            "derived": self.derived_metrics(),
            "spans": [c.to_dict() for c in self.root.children],
        }

    def to_json(self, *, indent: int | None = 2, **meta) -> str:
        return json.dumps(self.to_dict(**meta), indent=indent, sort_keys=True)


class _NullSpan:
    """Shared no-op span/context-manager returned by :class:`NullTracer`."""

    __slots__ = ()
    name = "null"
    seconds = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, **attrs) -> None:
        return None

    def count(self, name: str, value: float = 1.0) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def record(self, name: str, value: float) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every operation is a no-op.

    ``runtime.tracer.span(...)`` returns a shared context manager and
    allocates nothing; counter calls return immediately.  Code that must
    *compute* values for counters should guard on :attr:`enabled`.
    """

    enabled = False

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def push(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def pop(self) -> None:
        return None

    def unwind(self, span) -> None:
        return None

    def count(self, name: str, value: float = 1.0) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def record(self, name: str, value: float) -> None:
        return None

    @property
    def current(self) -> _NullSpan:
        return _NULL_SPAN

    def span_path(self) -> str:
        return format_span_path(())

    def counter_totals(self) -> Dict[str, float]:
        return {}

    def derived_metrics(self) -> Dict[str, float]:
        return {}

    def to_dict(self, **meta) -> dict:
        return {"schema": TRACE_SCHEMA, "meta": meta, "counters": {},
                "derived": {}, "spans": []}

    def to_json(self, *, indent: int | None = 2, **meta) -> str:
        return json.dumps(self.to_dict(**meta), indent=indent, sort_keys=True)


#: Module-level disabled tracer; the default everywhere.
NULL_TRACER = NullTracer()
