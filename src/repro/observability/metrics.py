"""Metric families, their exposition, and the shared bucket machinery.

A :class:`~repro.observability.recorder.Recorder` folds every metric
update into a :class:`Family` as it arrives.  A family is one of three
kinds:

- ``counter`` — monotonically increasing totals (requests served,
  atomic operations, chunks dispatched);
- ``gauge`` — set-to-current values (queue depth, store bytes,
  community count of the last run);
- ``histogram`` — power-of-two exponent-bucketed distributions
  (request latency in logical-clock units, batch sizes), the same bucket
  machinery the trace's observation histograms use (:func:`bucket_of` /
  :func:`bucket_percentile`), so both report one p50/p99.

Families carry **label sets** (``("kind",)``, ``("phase", "policy")``)
with a hard cardinality bound: once a family holds :data:`MAX_SERIES`
distinct label combinations, further new combinations all collapse into
one reserved ``_overflow`` series, so a mis-labeled hot loop can never
grow memory without bound.  Iteration order is deterministic everywhere
(families sorted by name, series by label values), which makes both
exporters byte-deterministic:

- :func:`to_prometheus` — Prometheus text exposition format 0.0.4
  (validated by :func:`validate_prometheus`);
- :func:`to_snapshot` — the schema-versioned JSON document
  (:data:`METRICS_SCHEMA`).
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Sequence, Tuple

from repro.errors import MetricsError

__all__ = [
    "METRICS_SCHEMA",
    "BUCKET_MIN_EXP",
    "BUCKET_MAX_EXP",
    "BUCKET_ZERO",
    "bucket_of",
    "bucket_estimate",
    "bucket_percentile",
    "exact_percentile",
    "Family",
    "MAX_SERIES",
    "derived_metrics",
    "to_prometheus",
    "to_snapshot",
    "trace_families",
    "validate_prometheus",
]

#: Version tag embedded in every emitted metrics snapshot.
METRICS_SCHEMA = "repro.metrics/1"

#: Histogram bucket exponent bounds: a value ``v`` lands in bucket ``e``
#: when ``2**(e-1) < v <= 2**e``, clamped to this range.  Non-positive
#: values use the sentinel bucket :data:`BUCKET_ZERO`.
BUCKET_MIN_EXP = -40
BUCKET_MAX_EXP = 41
BUCKET_ZERO = -41

#: Label value every over-cardinality series collapses into.
OVERFLOW_LABEL = "_overflow"

#: Distinct label combinations a family holds before new ones overflow.
MAX_SERIES = 64

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def bucket_of(value: float) -> int:
    """Exponent bucket of ``value`` (shared trace/metrics machinery)."""
    if value <= 0.0:
        return BUCKET_ZERO
    exp = math.frexp(value)[1]
    return min(max(exp, BUCKET_MIN_EXP), BUCKET_MAX_EXP)


def bucket_estimate(exp: int) -> float:
    """Representative value of bucket ``exp`` (arithmetic midpoint)."""
    if exp == BUCKET_ZERO:
        return 0.0
    return 0.75 * 2.0 ** exp


def bucket_percentile(buckets: Dict[int, int], q: float) -> float:
    """Nearest-rank percentile estimate from an exponent histogram.

    ``q`` is in ``[0, 100]``.  The estimate is the midpoint of the
    bucket containing the nearest-rank sample, so it is accurate to a
    factor of ~1.5 — enough for p50/p99 latency reporting without
    retaining individual samples.
    """
    total = sum(buckets.values())
    if total == 0:
        return 0.0
    rank = max(math.ceil(q / 100.0 * total), 1)
    cum = 0
    for exp in sorted(buckets):
        cum += buckets[exp]
        if cum >= rank:
            return bucket_estimate(exp)
    return bucket_estimate(max(buckets))  # pragma: no cover - defensive


def exact_percentile(values: Sequence, q: float):
    """Nearest-rank percentile of raw ``values`` (0 for an empty list).

    The single shared implementation behind the partition server's
    deterministic latency stats (formerly ``service.server.percentile``)
    and any caller that retains individual samples.  Returns an element
    of ``values`` — integer inputs keep integer outputs, so documents
    built from it stay bitwise identical to the pre-dedup code.
    """
    if not values:
        return 0
    ordered = sorted(values)
    rank = max(math.ceil(q / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def _fmt_value(v: float) -> str:
    """Deterministic Prometheus sample-value formatting."""
    f = float(v)
    if math.isinf(f):
        return "+Inf" if f > 0 else "-Inf"
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _escape_label_value(v: str) -> str:
    return v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(v: str) -> str:
    return v.replace("\\", "\\\\").replace("\n", "\\n")


def _label_body(labelnames: Tuple[str, ...], key: Tuple[str, ...]) -> str:
    if not labelnames:
        return ""
    inner = ",".join(
        f'{n}="{_escape_label_value(v)}"' for n, v in zip(labelnames, key)
    )
    return "{" + inner + "}"


# -- the metric family ---------------------------------------------------------

#: The kinds a family can be.
_KINDS = ("counter", "gauge", "histogram")


class _Histogram:
    """One histogram series: exponent buckets plus exact summary stats."""

    __slots__ = ("count", "sum", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        v = float(value)
        self.count += 1
        self.sum += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        b = bucket_of(v)
        self.buckets[b] = self.buckets.get(b, 0) + 1


class Family:
    """One metric family: its ``kind``, label names and series.

    ``series`` maps each label-value tuple (strings, in ``labelnames``
    order) to a number (counter, gauge) or a histogram series.
    :meth:`update` is the one mutation: a counter adds the value, a
    gauge takes it, a histogram observes it.
    """

    def __init__(self, kind: str, name: str, help: str = "",
                 labelnames: Sequence[str] = ()) -> None:
        if kind not in _KINDS:
            raise MetricsError(f"unknown metric kind {kind!r}")
        if not _NAME_RE.match(name):
            raise MetricsError(f"invalid metric name {name!r}")
        labelnames = tuple(labelnames)
        for ln in labelnames:
            if not _LABEL_RE.match(ln) or ln.startswith("__"):
                raise MetricsError(f"invalid label name {ln!r} on {name!r}")
        if len(set(labelnames)) != len(labelnames):
            raise MetricsError(f"duplicate label names on {name!r}")
        self.kind = kind
        self.name = name
        self.help = help
        self.labelnames = labelnames
        #: Updates of a new label combination past :data:`MAX_SERIES`,
        #: all routed to the one ``_overflow`` series.
        self.overflowed = 0
        self.series: Dict[Tuple[str, ...], object] = {}
        if not labelnames:
            self.series[()] = self._zero()

    def _zero(self):
        return _Histogram() if self.kind == "histogram" else 0.0

    def update(self, value: float, labels: Sequence = ()) -> None:
        """Apply ``value`` to the series of ``labels`` (created on first
        use; a new combination past :data:`MAX_SERIES` lands in the
        ``_overflow`` series)."""
        if len(labels) != len(self.labelnames):
            raise MetricsError(
                f"{self.name}: expected {len(self.labelnames)} label "
                f"value(s) {self.labelnames}, got {len(labels)}")
        if self.kind == "counter" and value < 0:
            raise MetricsError(
                f"counter {self.name!r} cannot decrease (update {value})")
        key = tuple(str(v) for v in labels)
        series = self.series
        if key not in series:
            if len(series) >= MAX_SERIES:
                self.overflowed += 1
                key = (OVERFLOW_LABEL,) * len(self.labelnames)
            if key not in series:
                series[key] = self._zero()
        if self.kind == "counter":
            series[key] += float(value)
        elif self.kind == "gauge":
            series[key] = float(value)
        else:
            series[key].observe(value)

    def _series_dicts(self) -> List[dict]:
        if self.kind != "histogram":
            return [{"labels": dict(zip(self.labelnames, key)), "value": v}
                    for key, v in sorted(self.series.items())]
        return [
            {
                "labels": dict(zip(self.labelnames, key)),
                "count": d.count,
                "sum": d.sum,
                "min": d.min if d.count else 0.0,
                "max": d.max if d.count else 0.0,
                "buckets": {str(e): c for e, c in sorted(d.buckets.items())},
            }
            for key, d in sorted(self.series.items())
        ]

    def _prometheus_lines(self) -> List[str]:
        if self.kind != "histogram":
            return [f"{self.name}{_label_body(self.labelnames, key)} "
                    f"{_fmt_value(v)}"
                    for key, v in sorted(self.series.items())]
        lines: List[str] = []
        for key, d in sorted(self.series.items()):
            cum = 0
            for exp in sorted(d.buckets):
                cum += d.buckets[exp]
                le = "0" if exp == BUCKET_ZERO else _fmt_value(2.0 ** exp)
                body = _label_body(self.labelnames + ("le",), key + (le,))
                lines.append(f"{self.name}_bucket{body} {cum}")
            body = _label_body(self.labelnames + ("le",), key + ("+Inf",))
            lines.append(f"{self.name}_bucket{body} {d.count}")
            base = _label_body(self.labelnames, key)
            lines.append(f"{self.name}_sum{base} {_fmt_value(d.sum)}")
            lines.append(f"{self.name}_count{base} {d.count}")
        return lines

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Family({self.kind!r}, {self.name!r}, "
                f"series={len(self.series)})")


# -- projection: the metrics document -----------------------------------------


def derived_metrics(families: Dict[str, Family]) -> Dict[str, float]:
    """p50/p99 bucket-estimates for every histogram series.

    Label-less series contribute ``{name}_p50`` / ``{name}_p99``;
    labeled series embed their label values
    (``service_latency_units_query_p99``), matching the names the trace
    document derives for the same distributions.
    """
    out: Dict[str, float] = {}
    for fam in _sorted(families):
        if fam.kind != "histogram":
            continue
        for key, d in sorted(fam.series.items()):
            tag = "_".join(key)
            stem = f"{fam.name}_{tag}" if tag else fam.name
            out[f"{stem}_p50"] = bucket_percentile(d.buckets, 50.0)
            out[f"{stem}_p99"] = bucket_percentile(d.buckets, 99.0)
    return out


def to_prometheus(families: Dict[str, Family]) -> str:
    """Prometheus text exposition format 0.0.4, byte-deterministic."""
    lines: List[str] = []
    for fam in _sorted(families):
        if fam.help:
            lines.append(f"# HELP {fam.name} {_escape_help(fam.help)}")
        lines.append(f"# TYPE {fam.name} {fam.kind}")
        lines.extend(fam._prometheus_lines())
    return "\n".join(lines) + ("\n" if lines else "")


def to_snapshot(families: Dict[str, Family], **meta) -> dict:
    """The families as a JSON-ready document (:data:`METRICS_SCHEMA`).

    ``meta`` is caller context (experiment name, seed, ...).  No
    wall-clock fields are added here, so a snapshot of deterministic
    families is byte-identical across runs.
    """
    out = {}
    for fam in _sorted(families):
        doc = {
            "type": fam.kind,
            "help": fam.help,
            "labels": list(fam.labelnames),
            "series": fam._series_dicts(),
        }
        if fam.overflowed:
            doc["overflowed"] = fam.overflowed
        out[fam.name] = doc
    return {
        "schema": METRICS_SCHEMA,
        "meta": meta,
        "families": out,
        "derived": derived_metrics(families),
    }


def trace_families(root, prefix: str = "trace_") -> Dict[str, Family]:
    """A trace tree's observations as ``{prefix}{name}`` histograms.

    Every distribution observed anywhere under ``root`` (a
    :class:`~repro.observability.tracer.Span`) becomes one histogram
    whose buckets are the subtree-merged span buckets and whose
    count/sum/min/max are the exact merged span stats, so a recorded
    run's trace and metrics report identical p50/p99.  ``run --record``
    and the metrics golden files add these families to the recorder's
    own; ``serve --record`` does not.
    """
    buckets = root.bucket_totals()
    stats = root.stats_totals()
    out: Dict[str, Family] = {}
    for name in sorted(buckets):
        fam = Family("histogram", prefix + name,
                     f"tracer observation histogram {name!r} (re-export)")
        d, s = fam.series[()], stats[name]
        d.buckets = {exp: int(c) for exp, c in buckets[name].items()}
        d.count = sum(d.buckets.values())
        d.sum += float(s["sum"])
        d.min = min(d.min, float(s["min"]))
        d.max = max(d.max, float(s["max"]))
        out[fam.name] = fam
    return out


def _sorted(families: Dict[str, Family]) -> List[Family]:
    return [families[n] for n in sorted(families)]


# -- exposition validation -----------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r" (?P<value>[+-]?(?:Inf|NaN|[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?))$"
)
_LABEL_PAIR_RE = re.compile(
    r'^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$'
)


def _parse_labels(body: str, line_no: int) -> Dict[str, str]:
    inner = body[1:-1]
    out: Dict[str, str] = {}
    if not inner:
        return out
    # Split on commas outside escapes; exposition values never contain
    # raw commas inside quotes in our emitter, but be permissive.
    parts = re.findall(r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"', inner)
    joined = ",".join(parts)
    if joined != inner:
        raise ValueError(f"line {line_no}: malformed label body {body!r}")
    for part in parts:
        m = _LABEL_PAIR_RE.match(part)
        if m is None:
            raise ValueError(f"line {line_no}: malformed label pair {part!r}")
        if m.group("name") in out:
            raise ValueError(
                f"line {line_no}: duplicate label {m.group('name')!r}")
        out[m.group("name")] = m.group("value")
    return out


def validate_prometheus(text: str) -> Dict[str, int]:
    """Line-format checker for Prometheus text exposition 0.0.4.

    Verifies comment/sample line syntax, that every sample belongs to a
    ``# TYPE``-declared family, and histogram integrity per series
    (cumulative non-decreasing buckets, a ``+Inf`` bucket equal to
    ``_count``).  Raises :class:`ValueError` on the first violation;
    returns ``{"families": n, "samples": n, "lines": n}`` — the CI smoke
    step prints this as evidence the exposition parses cleanly.
    """
    types: Dict[str, str] = {}
    samples = 0
    hist: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], Dict[str, object]] = {}
    lines = text.splitlines()
    for i, line in enumerate(lines, start=1):
        if not line:
            raise ValueError(f"line {i}: blank line in exposition")
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 4 and parts[1] == "HELP":
                parts.append("")
            if len(parts) < 4:
                raise ValueError(f"line {i}: malformed comment {line!r}")
            _, kw, name, rest = parts
            if not _NAME_RE.match(name):
                raise ValueError(f"line {i}: bad metric name {name!r}")
            if kw == "TYPE":
                if rest not in ("counter", "gauge", "histogram", "summary",
                                "untyped"):
                    raise ValueError(f"line {i}: unknown type {rest!r}")
                if name in types:
                    raise ValueError(f"line {i}: duplicate TYPE for {name!r}")
                types[name] = rest
            continue
        if line.startswith("#"):
            continue  # free-form comment
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"line {i}: malformed sample line {line!r}")
        samples += 1
        name = m.group("name")
        labels = _parse_labels(m.group("labels") or "{}", i)
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            stem = name[: -len(suffix)] if name.endswith(suffix) else None
            if stem and types.get(stem) == "histogram":
                family = stem
                break
        if family not in types:
            raise ValueError(
                f"line {i}: sample {name!r} precedes its # TYPE declaration")
        if types[family] == "histogram":
            key = (family,
                   tuple(sorted((k, v) for k, v in labels.items()
                                if k != "le")))
            st = hist.setdefault(
                key, {"buckets": [], "count": None, "inf": None})
            value = float(m.group("value").replace("Inf", "inf"))
            if name.endswith("_bucket"):
                if "le" not in labels:
                    raise ValueError(
                        f"line {i}: histogram bucket without le label")
                if labels["le"] == "+Inf":
                    st["inf"] = value
                else:
                    st["buckets"].append((float(labels["le"]), value))
            elif name.endswith("_count"):
                st["count"] = value
    for (family, key), st in sorted(hist.items()):
        cum = [v for _, v in st["buckets"]]
        if any(b > a for a, b in zip(cum[1:], cum)):
            raise ValueError(
                f"histogram {family}{dict(key)}: buckets not cumulative")
        les = [le for le, _ in st["buckets"]]
        if sorted(les) != les:
            raise ValueError(
                f"histogram {family}{dict(key)}: le bounds not sorted")
        if st["inf"] is None:
            raise ValueError(f"histogram {family}{dict(key)}: no +Inf bucket")
        if st["count"] is not None and st["count"] != st["inf"]:
            raise ValueError(
                f"histogram {family}{dict(key)}: +Inf bucket "
                f"{st['inf']} != _count {st['count']}")
    return {"families": len(types), "samples": samples, "lines": len(lines)}
