"""Typed metric instruments, the process-wide registry, and exposition.

The third observability pillar next to traces (:mod:`~repro.observability.
tracer`) and thread-timeline profiles (:mod:`~repro.observability.
profiler`): aggregatable, label-dimensioned time series of runtime
counters.  A :class:`MetricsRegistry` owns a set of named instruments —

- :class:`Counter` — monotonically increasing totals (requests served,
  atomic operations, chunks dispatched);
- :class:`Gauge` — set-to-current values (queue depth, store bytes,
  community count of the last run);
- :class:`Histogram` — power-of-two exponent-bucketed distributions
  (request latency in logical-clock units, batch sizes), the same bucket
  machinery the tracer's observation histograms use — this module is its
  single home (:func:`bucket_of` / :func:`bucket_percentile`) and
  :mod:`repro.observability.tracer` imports it from here.

Instruments carry **label sets** (``("kind",)``, ``("phase", "policy")``)
with a hard cardinality bound: once an instrument holds ``max_series``
distinct label combinations, further new combinations all collapse into
one reserved ``_overflow`` series, so a mis-labeled hot loop can never
grow memory without bound.  Iteration order is deterministic everywhere
(families sorted by name, series by label values), which makes both
exporters byte-deterministic:

- :meth:`MetricsRegistry.to_prometheus` — Prometheus text exposition
  format 0.0.4 (validated by :func:`validate_prometheus`);
- :meth:`MetricsRegistry.to_snapshot` / :meth:`~MetricsRegistry.to_json`
  — a schema-versioned JSON document (:data:`METRICS_SCHEMA`).

Disabled collection is zero-cost via the :data:`NULL_REGISTRY` pattern
(mirroring ``NULL_TRACER`` / ``NULL_PROFILER``): every factory returns a
shared no-op instrument, and hot loops that must *compute* a value to
feed an instrument guard on :attr:`MetricsRegistry.enabled`.
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
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

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def bucket_of(value: float) -> int:
    """Exponent bucket of ``value`` (shared tracer/metrics machinery)."""
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


# -- instruments ---------------------------------------------------------------


class _Bound:
    """An instrument pre-bound to one label combination.

    Hot call sites resolve their labels once (``c = counter.labels(...)``)
    and then pay one method call plus one dict update per event.
    """

    __slots__ = ("_inst", "_key")

    def __init__(self, inst: "_Instrument", key: Tuple[str, ...]) -> None:
        self._inst = inst
        self._key = key

    def inc(self, value: float = 1.0) -> None:
        self._inst._inc(self._key, value)

    def add(self, value: float) -> None:
        self._inst._add(self._key, value)

    def set(self, value: float) -> None:
        self._inst._set(self._key, value)

    def observe(self, value: float) -> None:
        self._inst._observe(self._key, value)


class _Instrument:
    """Shared series bookkeeping of all three instrument kinds."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        *,
        max_series: int = 64,
    ) -> None:
        if not _NAME_RE.match(name):
            raise MetricsError(f"invalid metric name {name!r}")
        labelnames = tuple(labelnames)
        for ln in labelnames:
            if not _LABEL_RE.match(ln) or ln.startswith("__"):
                raise MetricsError(f"invalid label name {ln!r} on {name!r}")
        if len(set(labelnames)) != len(labelnames):
            raise MetricsError(f"duplicate label names on {name!r}")
        if max_series < 1:
            raise MetricsError("max_series must be >= 1")
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self.max_series = int(max_series)
        #: Label-routing events that landed in the ``_overflow`` series.
        self.overflowed = 0
        self._bound: Dict[Tuple[str, ...], _Bound] = {}
        if not labelnames:
            self._new_series(())

    # -- series management -------------------------------------------------

    def _series_keys(self) -> Iterable[Tuple[str, ...]]:
        raise NotImplementedError

    def _num_series(self) -> int:
        raise NotImplementedError

    def _new_series(self, key: Tuple[str, ...]) -> None:
        raise NotImplementedError

    def _has_series(self, key: Tuple[str, ...]) -> bool:
        raise NotImplementedError

    def labels(self, *values, **kw) -> _Bound:
        """The series for one label combination (created on first use).

        Values may be positional (in ``labelnames`` order), keyword, or a
        mix; everything is stringified.  A *new* combination past the
        ``max_series`` cardinality bound is routed to the single shared
        ``_overflow`` series instead of growing the instrument.
        """
        if kw:
            tail = tuple(kw[n] for n in self.labelnames[len(values):]
                         if n in kw)
            if len(values) + len(tail) != len(self.labelnames):
                raise MetricsError(
                    f"{self.name}: expected labels {self.labelnames}, "
                    f"got {values!r} + {sorted(kw)!r}")
            values = values + tail
        elif len(values) != len(self.labelnames):
            raise MetricsError(
                f"{self.name}: expected {len(self.labelnames)} label "
                f"value(s) {self.labelnames}, got {len(values)}")
        key = tuple(str(v) for v in values)
        bound = self._bound.get(key)
        if bound is not None:
            return bound
        if not self._has_series(key) and self._num_series() >= self.max_series:
            self.overflowed += 1
            over = (OVERFLOW_LABEL,) * len(self.labelnames)
            if not self._has_series(over):
                self._new_series(over)
            # NOT cached under ``key``: later hits on the same key must
            # keep counting as overflow routing, and caching every
            # rejected key would itself grow without bound.
            return _Bound(self, over)
        if not self._has_series(key):
            self._new_series(key)
        bound = _Bound(self, key)
        self._bound[key] = bound
        return bound

    # -- mutation entry points (overridden per kind) -----------------------

    def _inc(self, key, value) -> None:
        raise MetricsError(f"{self.kind} {self.name!r} does not support inc()")

    def _add(self, key, value) -> None:
        raise MetricsError(f"{self.kind} {self.name!r} does not support add()")

    def _set(self, key, value) -> None:
        raise MetricsError(f"{self.kind} {self.name!r} does not support set()")

    def _observe(self, key, value) -> None:
        raise MetricsError(
            f"{self.kind} {self.name!r} does not support observe()")

    def _check_unlabeled(self) -> None:
        if self.labelnames:
            raise MetricsError(
                f"{self.name} carries labels {self.labelnames}; "
                "bind them with .labels(...) first")

    # -- emission ----------------------------------------------------------

    def _series_dicts(self) -> List[dict]:
        raise NotImplementedError

    def _prometheus_lines(self) -> List[str]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}({self.name!r}, "
                f"series={self._num_series()})")


class Counter(_Instrument):
    """A monotonically increasing total (per label combination)."""

    kind = "counter"

    def __init__(self, name, help="", labelnames=(), *, max_series=64):
        self._values: Dict[Tuple[str, ...], float] = {}
        super().__init__(name, help, labelnames, max_series=max_series)

    def _series_keys(self):
        return self._values.keys()

    def _num_series(self):
        return len(self._values)

    def _new_series(self, key):
        self._values[key] = 0.0

    def _has_series(self, key):
        return key in self._values

    def inc(self, value: float = 1.0) -> None:
        """Increment the (label-less) counter by ``value`` (>= 0)."""
        self._check_unlabeled()
        self._inc((), value)

    def _inc(self, key, value=1.0):
        if value < 0:
            raise MetricsError(
                f"counter {self.name!r} cannot decrease (inc {value})")
        self._values[key] += float(value)

    def value(self, *label_values) -> float:
        """Current total of one series (testing/inspection helper)."""
        return self._values.get(tuple(str(v) for v in label_values), 0.0)

    def _series_dicts(self):
        return [
            {"labels": dict(zip(self.labelnames, key)), "value": v}
            for key, v in sorted(self._values.items())
        ]

    def _prometheus_lines(self):
        return [
            f"{self.name}{_label_body(self.labelnames, key)} {_fmt_value(v)}"
            for key, v in sorted(self._values.items())
        ]


class Gauge(_Instrument):
    """A set-to-current value (per label combination)."""

    kind = "gauge"

    def __init__(self, name, help="", labelnames=(), *, max_series=64):
        self._values: Dict[Tuple[str, ...], float] = {}
        super().__init__(name, help, labelnames, max_series=max_series)

    _series_keys = Counter._series_keys
    _num_series = Counter._num_series
    _new_series = Counter._new_series
    _has_series = Counter._has_series
    value = Counter.value
    _series_dicts = Counter._series_dicts
    _prometheus_lines = Counter._prometheus_lines

    def set(self, value: float) -> None:
        self._check_unlabeled()
        self._set((), value)

    def add(self, value: float) -> None:
        self._check_unlabeled()
        self._add((), value)

    def _set(self, key, value):
        self._values[key] = float(value)

    def _add(self, key, value):
        self._values[key] += float(value)


class _HistogramData:
    """One histogram series: exponent buckets plus exact summary stats."""

    __slots__ = ("count", "sum", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: Dict[int, int] = {}


class Histogram(_Instrument):
    """A power-of-two exponent-bucketed distribution (per label set).

    Buckets are the shared :func:`bucket_of` exponents — the same layout
    the tracer's observation histograms use, so the two report identical
    :func:`bucket_percentile` estimates for identical samples.
    """

    kind = "histogram"

    def __init__(self, name, help="", labelnames=(), *, max_series=64):
        self._data: Dict[Tuple[str, ...], _HistogramData] = {}
        super().__init__(name, help, labelnames, max_series=max_series)

    def _series_keys(self):
        return self._data.keys()

    def _num_series(self):
        return len(self._data)

    def _new_series(self, key):
        self._data[key] = _HistogramData()

    def _has_series(self, key):
        return key in self._data

    def observe(self, value: float) -> None:
        self._check_unlabeled()
        self._observe((), value)

    def _observe(self, key, value):
        v = float(value)
        d = self._data[key]
        d.count += 1
        d.sum += v
        if v < d.min:
            d.min = v
        if v > d.max:
            d.max = v
        b = bucket_of(v)
        d.buckets[b] = d.buckets.get(b, 0) + 1

    def _inject(self, buckets: Dict[int, int],
                stats: Optional[Dict[str, float]] = None) -> None:
        """Merge pre-bucketed observations into the unlabeled series (the
        tracer re-export path).

        ``stats`` carries exact ``count/sum/min/max`` when the producer
        retained them; otherwise the count comes from the buckets and
        sum/min/max stay at their bucket-estimate defaults.
        """
        d = self._data[()]
        added = 0
        for exp, c in buckets.items():
            d.buckets[exp] = d.buckets.get(exp, 0) + int(c)
            added += int(c)
        d.count += added
        if stats is not None:
            d.sum += float(stats["sum"])
            d.min = min(d.min, float(stats["min"]))
            d.max = max(d.max, float(stats["max"]))
        else:
            d.sum += sum(bucket_estimate(e) * c for e, c in buckets.items())

    def percentile(self, q: float, *label_values) -> float:
        """Bucket-estimate percentile of one series."""
        key = tuple(str(v) for v in label_values)
        d = self._data.get(key)
        return bucket_percentile(d.buckets, q) if d is not None else 0.0

    def _series_dicts(self):
        return [
            {
                "labels": dict(zip(self.labelnames, key)),
                "count": d.count,
                "sum": d.sum,
                "min": d.min if d.count else 0.0,
                "max": d.max if d.count else 0.0,
                "buckets": {str(e): c for e, c in sorted(d.buckets.items())},
            }
            for key, d in sorted(self._data.items())
        ]

    def _prometheus_lines(self):
        lines: List[str] = []
        for key, d in sorted(self._data.items()):
            cum = 0
            for exp in sorted(d.buckets):
                cum += d.buckets[exp]
                le = "0" if exp == BUCKET_ZERO else _fmt_value(2.0 ** exp)
                body = _label_body(
                    self.labelnames + ("le",), key + (le,))
                lines.append(f"{self.name}_bucket{body} {cum}")
            body = _label_body(self.labelnames + ("le",), key + ("+Inf",))
            lines.append(f"{self.name}_bucket{body} {d.count}")
            base = _label_body(self.labelnames, key)
            lines.append(f"{self.name}_sum{base} {_fmt_value(d.sum)}")
            lines.append(f"{self.name}_count{base} {d.count}")
        return lines


# -- the registry --------------------------------------------------------------


class MetricsRegistry:
    """Process-wide instrument registry with deterministic exposition.

    Factories are get-or-create: asking twice for the same name returns
    the same instrument (so instrumented modules need no global state),
    and asking with a conflicting kind or label set raises
    :class:`~repro.errors.MetricsError`.
    """

    enabled = True

    def __init__(self, *, max_series_per_instrument: int = 64) -> None:
        self.max_series_per_instrument = int(max_series_per_instrument)
        self._instruments: Dict[str, _Instrument] = {}

    # -- factories ---------------------------------------------------------

    def _get_or_create(self, cls, name, help, labelnames, max_series):
        inst = self._instruments.get(name)
        if inst is not None:
            if type(inst) is not cls or inst.labelnames != tuple(labelnames):
                raise MetricsError(
                    f"instrument {name!r} already registered as "
                    f"{inst.kind} with labels {inst.labelnames}")
            return inst
        inst = cls(
            name, help, labelnames,
            max_series=max_series or self.max_series_per_instrument,
        )
        self._instruments[name] = inst
        return inst

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = (), *,
                max_series: Optional[int] = None) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames, max_series)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = (), *,
              max_series: Optional[int] = None) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames, max_series)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (), *,
                  max_series: Optional[int] = None) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, max_series)

    # -- inspection --------------------------------------------------------

    def instruments(self) -> List[_Instrument]:
        """All instruments, sorted by name (deterministic iteration)."""
        return [self._instruments[n] for n in sorted(self._instruments)]

    def get(self, name: str) -> Optional[_Instrument]:
        return self._instruments.get(name)

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    # -- tracer re-export --------------------------------------------------

    def merge_tracer(self, tracer, prefix: str = "trace_") -> List[str]:
        """Re-export a tracer's observation histograms as instruments.

        Every distribution observed anywhere in ``tracer``'s span tree
        becomes a ``{prefix}{name}`` histogram whose buckets are the
        subtree-merged tracer buckets and whose count/sum/min/max are the
        exact merged span stats — so ``repro trace`` and ``repro
        metrics`` report identical p50/p99 for the same run.  Returns the
        instrument names created or updated.
        """
        buckets = tracer.root.bucket_totals()
        stats = tracer.root.stats_totals()
        names: List[str] = []
        for name in sorted(buckets):
            hist = self.histogram(
                prefix + name,
                help=f"tracer observation histogram {name!r} (re-export)",
            )
            hist._inject(buckets[name], stats.get(name))
            names.append(hist.name)
        return names

    # -- derived metrics ---------------------------------------------------

    def derived_metrics(self) -> Dict[str, float]:
        """p50/p99 bucket-estimates for every histogram series.

        Label-less series contribute ``{name}_p50`` / ``{name}_p99``;
        labeled series embed their label values
        (``service_latency_units_query_p99``) — matching the names
        :meth:`Tracer.derived_metrics` emits for the same distributions.
        """
        out: Dict[str, float] = {}
        for inst in self.instruments():
            if not isinstance(inst, Histogram):
                continue
            for key, d in sorted(inst._data.items()):
                tag = "_".join(key)
                stem = f"{inst.name}_{tag}" if tag else inst.name
                out[f"{stem}_p50"] = bucket_percentile(d.buckets, 50.0)
                out[f"{stem}_p99"] = bucket_percentile(d.buckets, 99.0)
        return out

    # -- exposition --------------------------------------------------------

    def to_prometheus(self) -> str:
        """Prometheus text exposition format 0.0.4, byte-deterministic."""
        lines: List[str] = []
        for inst in self.instruments():
            if inst.help:
                lines.append(f"# HELP {inst.name} {_escape_help(inst.help)}")
            lines.append(f"# TYPE {inst.name} {inst.kind}")
            lines.extend(inst._prometheus_lines())
        return "\n".join(lines) + ("\n" if lines else "")

    def to_snapshot(self, **meta) -> dict:
        """The registry as a JSON-ready document (:data:`METRICS_SCHEMA`).

        ``meta`` is caller context (experiment name, seed, ...).
        Deterministic: no wall-clock fields are added here, so a
        snapshot of deterministic instruments is byte-identical across
        runs.
        """
        families = {}
        for inst in self.instruments():
            fam = {
                "type": inst.kind,
                "help": inst.help,
                "labels": list(inst.labelnames),
                "series": inst._series_dicts(),
            }
            if inst.overflowed:
                fam["overflowed"] = inst.overflowed
            families[inst.name] = fam
        return {
            "schema": METRICS_SCHEMA,
            "meta": meta,
            "families": families,
            "derived": self.derived_metrics(),
        }

    def to_json(self, *, indent: int | None = 2, **meta) -> str:
        return json.dumps(self.to_snapshot(**meta), indent=indent,
                          sort_keys=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetricsRegistry({len(self._instruments)} instruments)"


# -- the disabled registry -----------------------------------------------------


class _NullInstrument:
    """Shared no-op instrument: every mutation returns immediately."""

    __slots__ = ()
    name = "null"
    labelnames = ()
    overflowed = 0

    def labels(self, *values, **kw) -> "_NullInstrument":
        return self

    def inc(self, value: float = 1.0) -> None:
        return None

    def add(self, value: float) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None

    def value(self, *label_values) -> float:
        return 0.0

    def percentile(self, q: float, *label_values) -> float:
        return 0.0


class _NullCounter(_NullInstrument):
    kind = "counter"


class _NullGauge(_NullInstrument):
    kind = "gauge"


class _NullHistogram(_NullInstrument):
    kind = "histogram"


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


class NullRegistry:
    """Disabled registry: factories hand out shared no-op instruments.

    ``runtime.metrics.counter(...)`` allocates nothing and every
    mutation is a constant-time no-op, so uninstrumented runs pay one
    attribute read per site.  Code that must *compute* a value to feed
    an instrument guards on :attr:`enabled` instead.
    """

    enabled = False

    def counter(self, name, help="", labelnames=(), *, max_series=None):
        return NULL_COUNTER

    def gauge(self, name, help="", labelnames=(), *, max_series=None):
        return NULL_GAUGE

    def histogram(self, name, help="", labelnames=(), *, max_series=None):
        return NULL_HISTOGRAM

    def instruments(self) -> list:
        return []

    def get(self, name: str) -> None:
        return None

    def __len__(self) -> int:
        return 0

    def __contains__(self, name: str) -> bool:
        return False

    def merge_tracer(self, tracer, prefix: str = "trace_") -> list:
        return []

    def derived_metrics(self) -> Dict[str, float]:
        return {}

    def to_prometheus(self) -> str:
        return ""

    def to_snapshot(self, **meta) -> dict:
        return {"schema": METRICS_SCHEMA, "meta": meta, "families": {},
                "derived": {}}

    def to_json(self, *, indent: int | None = 2, **meta) -> str:
        return json.dumps(self.to_snapshot(**meta), indent=indent,
                          sort_keys=True)


#: Module-level disabled registry; the default everywhere.
NULL_REGISTRY = NullRegistry()


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
