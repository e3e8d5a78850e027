"""Tests for the typed instrument registry and its exporters."""

import json

import pytest

from repro.core.config import LeidenConfig
from repro.core.leiden import leiden
from repro.errors import MetricsError
from repro.observability.metrics import (
    BUCKET_ZERO,
    METRICS_SCHEMA,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    bucket_of,
    bucket_percentile,
    exact_percentile,
    validate_prometheus,
)
from repro.observability.tracer import Tracer
from repro.parallel.runtime import Runtime
from tests.conftest import ring_of_cliques_graph


class TestCounter:
    def test_unlabeled(self):
        c = Counter("requests_total", "all requests")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_labeled(self):
        c = Counter("requests_total", "", ("kind",))
        c.labels("query").inc(2)
        c.labels(kind="detect").inc()
        assert c.value("query") == 2.0
        assert c.value("detect") == 1.0

    def test_negative_inc_rejected(self):
        c = Counter("c_total")
        with pytest.raises(MetricsError):
            c.inc(-1.0)

    def test_unlabeled_use_of_labeled_rejected(self):
        c = Counter("c_total", "", ("kind",))
        with pytest.raises(MetricsError):
            c.inc()

    def test_wrong_label_count_rejected(self):
        c = Counter("c_total", "", ("a", "b"))
        with pytest.raises(MetricsError):
            c.labels("x")

    def test_invalid_names_rejected(self):
        with pytest.raises(MetricsError):
            Counter("1bad")
        with pytest.raises(MetricsError):
            Counter("ok_total", "", ("__reserved",))
        with pytest.raises(MetricsError):
            Counter("ok_total", "", ("a", "a"))


class TestGauge:
    def test_set_and_add(self):
        g = Gauge("depth")
        g.set(5)
        g.add(-2)
        assert g._values[()] == 3.0

    def test_labeled_set(self):
        g = Gauge("depth", "", ("q",))
        g.labels("main").set(7)
        g.labels("main").set(2)
        assert g._values[("main",)] == 2.0


class TestHistogram:
    def test_observe_and_percentile(self):
        h = Histogram("lat")
        for v in (1.0, 2.0, 3.0, 100.0):
            h.observe(v)
        d = h._data[()]
        assert d.count == 4
        assert d.sum == 106.0
        assert d.min == 1.0 and d.max == 100.0
        # p50 and the tracer's bucket estimate agree by construction.
        assert h.percentile(50.0) == bucket_percentile(d.buckets, 50.0)

    def test_zero_and_negative_land_in_zero_bucket(self):
        h = Histogram("lat")
        h.observe(0.0)
        h.observe(-3.0)
        assert h._data[()].buckets == {BUCKET_ZERO: 2}
        assert bucket_of(0.0) == BUCKET_ZERO


class TestCardinalityBound:
    def test_overflow_routes_to_single_series(self):
        c = Counter("c_total", "", ("user",), max_series=3)
        for i in range(10):
            c.labels(f"user{i}").inc()
        # 3 real series plus the shared overflow series.
        assert c._num_series() == 4
        assert c.value("_overflow") == 7.0
        assert c.overflowed == 7

    def test_existing_series_keep_working_past_bound(self):
        c = Counter("c_total", "", ("user",), max_series=2)
        c.labels("a").inc()
        c.labels("b").inc()
        c.labels("c").inc()  # overflow
        c.labels("a").inc()  # still routed to its own series
        assert c.value("a") == 2.0
        assert c.value("_overflow") == 1.0

    def test_overflow_counts_every_rejected_event(self):
        c = Counter("c_total", "", ("user",), max_series=1)
        c.labels("a").inc()
        c.labels("b").inc()
        c.labels("b").inc()
        assert c.overflowed == 2
        assert c.value("_overflow") == 2.0


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        r = MetricsRegistry()
        a = r.counter("x_total", "help")
        b = r.counter("x_total")
        assert a is b
        assert len(r) == 1 and "x_total" in r

    def test_kind_conflict_raises(self):
        r = MetricsRegistry()
        r.counter("x_total")
        with pytest.raises(MetricsError):
            r.gauge("x_total")

    def test_label_conflict_raises(self):
        r = MetricsRegistry()
        r.counter("x_total", "", ("a",))
        with pytest.raises(MetricsError):
            r.counter("x_total", "", ("b",))

    def test_instruments_sorted_by_name(self):
        r = MetricsRegistry()
        r.counter("zz_total")
        r.gauge("aa")
        r.histogram("mm")
        assert [i.name for i in r.instruments()] == ["aa", "mm", "zz_total"]


class TestExactPercentile:
    def test_empty(self):
        assert exact_percentile([], 99.0) == 0

    def test_preserves_element_type(self):
        assert exact_percentile([3, 1, 2], 50.0) == 2
        assert isinstance(exact_percentile([3, 1, 2], 50.0), int)
        assert exact_percentile([1.5, 2.5], 99.0) == 2.5

    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert exact_percentile(values, 50.0) == 50
        assert exact_percentile(values, 99.0) == 99
        assert exact_percentile(values, 100.0) == 100

    def test_matches_service_percentile_helper(self):
        from repro.service.server import percentile

        values = [5, 1, 9, 3, 7, 2, 8]
        for q in (50.0, 90.0, 99.0):
            assert percentile(values, q) == int(exact_percentile(values, q))


class TestExposition:
    def _populated(self):
        r = MetricsRegistry()
        r.counter("req_total", "requests", ("kind",)).labels("query").inc(3)
        r.gauge("depth", "queue depth").set(2)
        h = r.histogram("lat_units", "latency", ("kind",))
        for v in (1.0, 4.0, 4.0, 100.0):
            h.labels("query").observe(v)
        return r

    def test_prometheus_golden(self):
        r = MetricsRegistry()
        r.counter("req_total", "all requests", ("kind",)).labels("q").inc(3)
        r.gauge("depth").set(2)
        h = r.histogram("lat")
        h.observe(1.0)
        h.observe(3.0)
        assert r.to_prometheus() == (
            "# TYPE depth gauge\n"
            "depth 2\n"
            "# TYPE lat histogram\n"
            'lat_bucket{le="2"} 1\n'
            'lat_bucket{le="4"} 2\n'
            'lat_bucket{le="+Inf"} 2\n'
            "lat_sum 4\n"
            "lat_count 2\n"
            "# HELP req_total all requests\n"
            "# TYPE req_total counter\n"
            'req_total{kind="q"} 3\n'
        )

    def test_prometheus_validates(self):
        r = self._populated()
        report = validate_prometheus(r.to_prometheus())
        assert report["families"] == 3
        assert report["samples"] > 0

    def test_validator_rejects_garbage(self):
        with pytest.raises(ValueError):
            validate_prometheus("not a metric line\n")

    def test_validator_rejects_non_monotonic_histogram(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="1"} 5\n'
                'h_bucket{le="2"} 3\n'
                'h_bucket{le="+Inf"} 5\n'
                "h_sum 4\n"
                "h_count 5\n")
        with pytest.raises(ValueError):
            validate_prometheus(text)

    def test_validator_rejects_exemplar_suffix(self):
        # Histograms carry no exemplars, so an OpenMetrics-style
        # `` # {...} <value>`` suffix is just a malformed sample line.
        text = ("# TYPE h histogram\n"
                'h_bucket{le="2"} 1 # {trace_id="aaaaaaaaaaaaaaaa"} 1\n'
                'h_bucket{le="+Inf"} 1\n'
                "h_sum 1\n"
                "h_count 1\n")
        with pytest.raises(ValueError, match="malformed sample line"):
            validate_prometheus(text)

    def test_label_values_escaped(self):
        r = MetricsRegistry()
        r.counter("c_total", "", ("p",)).labels('a"b\\c\nd').inc()
        text = r.to_prometheus()
        assert 'p="a\\"b\\\\c\\nd"' in text
        validate_prometheus(text)

    def test_snapshot_schema_and_shape(self):
        r = self._populated()
        doc = r.to_snapshot(experiment="t", seed=1)
        assert doc["schema"] == METRICS_SCHEMA
        assert doc["meta"] == {"experiment": "t", "seed": 1}
        assert set(doc["families"]) == {"req_total", "depth", "lat_units"}
        assert "lat_units_query_p99" in doc["derived"]

    def test_snapshot_double_run_byte_identical(self):
        docs = []
        for _ in range(2):
            docs.append(json.dumps(self._populated().to_snapshot(seed=3),
                                   sort_keys=True))
        assert docs[0] == docs[1]

    def test_prometheus_double_run_byte_identical(self):
        assert self._populated().to_prometheus() == \
            self._populated().to_prometheus()

    def test_overflow_reported_in_snapshot(self):
        r = MetricsRegistry(max_series_per_instrument=1)
        c = r.counter("c_total", "", ("u",))
        c.labels("a").inc()
        c.labels("b").inc()
        fam = r.to_snapshot()["families"]["c_total"]
        assert fam["overflowed"] == 1


class TestTracerReexport:
    def test_trace_and_metrics_percentiles_agree(self):
        graph = ring_of_cliques_graph()
        tracer = Tracer()
        registry = MetricsRegistry()
        rt = Runtime(num_threads=1, seed=7, tracer=tracer, metrics=registry)
        leiden(graph, LeidenConfig(seed=7), runtime=rt)
        names = registry.merge_tracer(tracer)
        assert names  # the run observed at least one distribution
        trace_derived = tracer.derived_metrics()
        reg_derived = registry.derived_metrics()
        for name in names:
            bare = name[len("trace_"):]
            for q in ("p50", "p99"):
                if f"{bare}_{q}" in trace_derived:
                    assert reg_derived[f"{name}_{q}"] == \
                        trace_derived[f"{bare}_{q}"]

    def test_exact_stats_survive_merge(self):
        t = Tracer()
        with t.span("s"):
            t.observe("batch_size", 4.0)
            t.observe("batch_size", 10.0)
        r = MetricsRegistry()
        r.merge_tracer(t)
        d = r.get("trace_batch_size")._data[()]
        assert d.count == 2
        assert d.sum == 14.0
        assert d.min == 4.0 and d.max == 10.0


class TestNullRegistry:
    def test_singleton_disabled(self):
        assert NULL_REGISTRY.enabled is False
        assert isinstance(NULL_REGISTRY, NullRegistry)

    def test_factories_return_noops(self):
        c = NULL_REGISTRY.counter("x_total", "", ("a",))
        c.inc()
        c.labels("y").inc(5)
        assert c.value() == 0.0
        g = NULL_REGISTRY.gauge("g")
        g.set(3)
        h = NULL_REGISTRY.histogram("h")
        h.observe(1.0)
        assert h.percentile(99.0) == 0.0

    def test_exposition_is_empty(self):
        assert NULL_REGISTRY.to_prometheus() == ""
        doc = NULL_REGISTRY.to_snapshot(seed=1)
        assert doc["families"] == {}
        assert len(NULL_REGISTRY) == 0

    def test_runtime_defaults_to_null_registry(self):
        rt = Runtime(num_threads=1, seed=0)
        assert rt.metrics is NULL_REGISTRY
