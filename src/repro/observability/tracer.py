"""The trace: a span tree with counters, projected from a recorder.

:func:`trace_tree` replays a :class:`~repro.observability.recorder.
Recorder`'s span, value, region, dispatch and request events into a tree
of :class:`Span` objects — typically ``leiden → pass → phase`` — each
holding wall-clock seconds, free-form attributes, additive counters,
min/max/sum observations with power-of-two histograms, and ordered
**series** such as the convergence monitor's per-iteration ΔQ.

:func:`trace_doc` emits the tree as a stable JSON document, versioned as
:data:`TRACE_SCHEMA`; consumers (the CI artifact, the regression
harness, ``repro trace --diff``) key on it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.observability.metrics import bucket_of as _bucket_of
from repro.observability.metrics import bucket_percentile
from repro.observability.recorder import DISPATCH_ENGINE, MIRRORS
from repro.parallel.costmodel import PAPER_MACHINE
from repro.parallel.simthread import WorkLedger

__all__ = ["TRACE_SCHEMA", "Span", "bucket_percentile", "derived_metrics",
           "format_span_path", "trace_doc", "trace_tree"]

#: Version tag embedded in every emitted trace document.
TRACE_SCHEMA = "repro.trace/2"


class Span:
    """One timed region of the trace tree."""

    __slots__ = ("name", "attrs", "counters", "stats", "buckets", "series",
                 "children", "seconds")

    def __init__(self, name: str, attrs: Optional[dict] = None) -> None:
        self.name = name
        self.attrs: Dict[str, object] = dict(attrs) if attrs else {}
        self.counters: Dict[str, float] = {}
        self.stats: Dict[str, Dict[str, float]] = {}
        #: Power-of-two histogram per observed distribution, feeding the
        #: p50/p99 estimates in :func:`derived_metrics`.
        self.buckets: Dict[str, Dict[int, int]] = {}
        #: Ordered per-span event sequences (``repro.trace/2``): e.g. the
        #: convergence monitor's ΔQ per local-moving iteration.  Unlike
        #: counters these preserve order and individual values.
        self.series: Dict[str, List[float]] = {}
        self.children: List["Span"] = []
        self.seconds = 0.0

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
        :func:`repro.observability.metrics.trace_families` so re-exported
        histograms keep exact sums rather than bucket estimates.
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

    Spans carrying an ``index`` attribute (the per-pass spans) embed it
    so repeated siblings stay distinguishable:
    ``leiden/pass[1]/local_move`` — the label of a timeline region.
    """
    parts = []
    for s in spans:
        idx = s.attrs.get("index")
        parts.append(f"{s.name}[{idx}]" if idx is not None else s.name)
    return "/".join(parts)


#: Series whose values a trace counter also sums.
_SERIES_COUNTERS = {name: counter
                    for (kind, name), (_, _, counter, _) in MIRRORS.items()
                    if kind == "series" and counter is not None}


def trace_tree(recorder) -> Span:
    """Replay ``recorder``'s events into a span tree; returns its root.

    Values land on the span open when they were recorded (the root when
    none was); a mark becomes an attribute of that span.  A ledger
    region adds the region counters, a kernel
    dispatch its ``kernel_count_<kernel>`` counter, a served request its
    ``service_request_seconds`` observation, and the workspace's
    allocation its ``mem_workspace_alloc_slots``.
    """
    root = Span("trace")
    stack = [root]
    for ev in recorder.events:
        kind = ev[0]
        top = stack[-1]
        if kind == "open":
            span = Span(ev[1], ev[2])
            top.children.append(span)
            stack.append(span)
        elif kind == "close":
            stack.pop().seconds = ev[1]
        elif kind == "set":
            top.attrs.update(ev[1])
        elif kind == "mark":
            top.attrs[ev[1]] = ev[2]
        elif kind == "count":
            top.count(ev[1], ev[2])
        elif kind == "observe":
            top.observe(ev[1], ev[2])
        elif kind == "series":
            top.record(ev[1], ev[2])
            counter = _SERIES_COUNTERS.get(ev[1])
            if counter is not None:
                top.count(counter, ev[2])
        elif kind == "region":
            _count_region(top, ev[1])
        elif kind == "dispatch":
            top.count(f"kernel_{DISPATCH_ENGINE}_{ev[1]}")
        elif kind == "request":
            top.observe("service_request_seconds", ev[3])
        elif kind == "alloc" and ev[2] == "workspace":
            top.count("mem_workspace_alloc_slots",
                      ev[5] // np.dtype(ev[6]).itemsize)
    return root


def _count_region(span: Span, region) -> None:
    """A region's counters: for a parallel region its atomics, barrier,
    work units and modelled clock skew (slowest-thread minus mean work
    at the paper machine's full thread count — the load-imbalance
    signal)."""
    costs = region.chunk_costs
    if region.kind == "serial":
        span.count("serial_regions")
        span.count("serial_work_units", float(costs[0]))
        return
    span.count("parallel_regions")
    # Every modelled parallel-for ends in an implicit barrier.
    span.count("barriers")
    span.count("atomic_ops", region.atomics)
    span.count("work_units", float(costs.sum()))
    machine = PAPER_MACHINE
    t = machine.max_threads
    slowest = WorkLedger._region_span(region, machine, t, 1.0)
    mean = (float(costs.sum())
            + machine.chunk_overhead_units * costs.shape[0]) / t
    span.count("clock_skew_units", max(0.0, slowest - mean))


def derived_metrics(root: Span) -> Dict[str, float]:
    """Ratios from a tree's counters plus percentile estimates from its
    observation histograms.

    Every observed distribution ``name`` contributes ``{name}_p50`` and
    ``{name}_p99`` — how the service latency histogram surfaces in a
    recorded serve run's trace with no service-specific plumbing.
    """
    totals = root.counter_totals()
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
    for name, hist in sorted(root.bucket_totals().items()):
        out[f"{name}_p50"] = bucket_percentile(hist, 50.0)
        out[f"{name}_p99"] = bucket_percentile(hist, 99.0)
    return out


def trace_doc(recorder, **meta) -> dict:
    """The trace as a JSON-ready document (``repro.trace/2``)."""
    root = trace_tree(recorder)
    return {
        "schema": TRACE_SCHEMA,
        "meta": meta,
        "counters": root.counter_totals(),
        "derived": derived_metrics(root),
        "spans": [c.to_dict() for c in root.children],
    }

