"""Tests for metric families, the recorder's registration and exposition."""

import json

import pytest

from repro.core.config import LeidenConfig
from repro.core.leiden import leiden
from repro.errors import MetricsError
from repro.observability import metrics
from repro.observability.metrics import (
    BUCKET_ZERO,
    METRICS_SCHEMA,
    Family,
    bucket_of,
    bucket_percentile,
    derived_metrics,
    exact_percentile,
    to_prometheus,
    to_snapshot,
    trace_families,
    validate_prometheus,
)
from repro.observability.recorder import NULL_RECORDER, Recorder
from repro.observability.tracer import trace_tree
from repro.parallel.runtime import Runtime
from tests.conftest import ring_of_cliques_graph


class TestCounter:
    def test_unlabeled(self):
        c = Family("counter", "requests_total", "all requests")
        c.update(1.0)
        c.update(2.5)
        assert c.series == {(): 3.5}

    def test_labeled(self):
        c = Family("counter", "requests_total", "", ("kind",))
        c.update(2, ("query",))
        c.update(1, ("detect",))
        assert c.series == {("query",): 2.0, ("detect",): 1.0}

    def test_negative_inc_rejected(self):
        c = Family("counter", "c_total")
        with pytest.raises(MetricsError, match="cannot decrease"):
            c.update(-1.0)

    def test_unlabeled_use_of_labeled_rejected(self):
        c = Family("counter", "c_total", "", ("kind",))
        with pytest.raises(MetricsError):
            c.update(1.0)

    def test_wrong_label_count_rejected(self):
        c = Family("counter", "c_total", "", ("a", "b"))
        with pytest.raises(MetricsError):
            c.update(1.0, ("x",))

    def test_invalid_names_rejected(self):
        with pytest.raises(MetricsError):
            Family("counter", "1bad")
        with pytest.raises(MetricsError):
            Family("counter", "ok_total", "", ("__reserved",))
        with pytest.raises(MetricsError):
            Family("counter", "ok_total", "", ("a", "a"))
        with pytest.raises(MetricsError):
            Family("summary", "ok_total")


class TestGauge:
    def test_set_and_add(self):
        """A gauge takes the last value, also a lower or negative one."""
        g = Family("gauge", "depth")
        g.update(5)
        g.update(-2)
        assert g.series[()] == -2.0

    def test_labeled_set(self):
        g = Family("gauge", "depth", "", ("q",))
        g.update(7, ("main",))
        g.update(2, ("main",))
        assert g.series[("main",)] == 2.0


class TestHistogram:
    def test_observe_and_percentile(self):
        h = Family("histogram", "lat")
        for v in (1.0, 2.0, 3.0, 100.0):
            h.update(v)
        d = h.series[()]
        assert d.count == 4
        assert d.sum == 106.0
        assert d.min == 1.0 and d.max == 100.0
        # p50 and the tracer's bucket estimate agree by construction.
        assert derived_metrics({"lat": h})["lat_p50"] == \
            bucket_percentile(d.buckets, 50.0)

    def test_zero_and_negative_land_in_zero_bucket(self):
        h = Family("histogram", "lat")
        h.update(0.0)
        h.update(-3.0)
        assert h.series[()].buckets == {BUCKET_ZERO: 2}
        assert bucket_of(0.0) == BUCKET_ZERO


class TestCardinalityBound:
    @pytest.fixture(autouse=True)
    def bound(self, monkeypatch):
        def set_bound(n):
            monkeypatch.setattr(metrics, "MAX_SERIES", n)
        return set_bound

    def test_overflow_routes_to_single_series(self, bound):
        bound(3)
        c = Family("counter", "c_total", "", ("user",))
        for i in range(10):
            c.update(1.0, (f"user{i}",))
        # 3 real series plus the shared overflow series.
        assert len(c.series) == 4
        assert c.series[("_overflow",)] == 7.0
        assert c.overflowed == 7

    def test_existing_series_keep_working_past_bound(self, bound):
        bound(2)
        c = Family("counter", "c_total", "", ("user",))
        c.update(1.0, ("a",))
        c.update(1.0, ("b",))
        c.update(1.0, ("c",))  # overflow
        c.update(1.0, ("a",))  # still routed to its own series
        assert c.series[("a",)] == 2.0
        assert c.series[("_overflow",)] == 1.0

    def test_overflow_counts_every_rejected_event(self, bound):
        bound(1)
        c = Family("counter", "c_total", "", ("user",))
        c.update(1.0, ("a",))
        c.update(1.0, ("b",))
        c.update(1.0, ("b",))
        assert c.overflowed == 2
        assert c.series[("_overflow",)] == 2.0


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        r = Recorder()
        r.family("counter", "x_total", "help")
        a = r.families["x_total"]
        r.family("counter", "x_total")
        assert r.families["x_total"] is a
        assert list(r.families) == ["x_total"]

    def test_kind_conflict_raises(self):
        r = Recorder()
        r.family("counter", "x_total")
        with pytest.raises(MetricsError):
            r.family("gauge", "x_total")

    def test_label_conflict_raises(self):
        r = Recorder()
        r.family("counter", "x_total", "", ("a",))
        with pytest.raises(MetricsError):
            r.family("counter", "x_total", "", ("b",))

    def test_instruments_sorted_by_name(self):
        r = Recorder()
        r.family("counter", "zz_total")
        r.family("gauge", "aa")
        r.family("histogram", "mm")
        assert list(to_snapshot(r.families)["families"]) == [
            "aa", "mm", "zz_total"]
        assert [line.split()[2] for line in to_prometheus(r.families)
                .splitlines() if line.startswith("# TYPE")] == [
            "aa", "mm", "zz_total"]

    def test_update_follows_the_family_kind(self):
        r = Recorder()
        r.family("counter", "c_total", "", ("k",))
        r.family("gauge", "g")
        r.family("histogram", "h")
        for v in (1.0, 2.0):
            r.metric("c_total", v, "a")
            r.metric("g", v)
            r.metric("h", v)
        assert r.families["c_total"].series == {("a",): 3.0}
        assert r.families["g"].series == {(): 2.0}
        assert r.families["h"].series[()].count == 2
        with pytest.raises(MetricsError):
            r.metric("unregistered_total", 1.0)


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
        r = Recorder()
        r.family("counter", "req_total", "requests", ("kind",))
        r.metric("req_total", 3, "query")
        r.family("gauge", "depth", "queue depth")
        r.metric("depth", 2)
        r.family("histogram", "lat_units", "latency", ("kind",))
        for v in (1.0, 4.0, 4.0, 100.0):
            r.metric("lat_units", v, "query")
        return r.families

    def test_prometheus_golden(self):
        r = Recorder()
        r.family("counter", "req_total", "all requests", ("kind",))
        r.metric("req_total", 3, "q")
        r.family("gauge", "depth")
        r.metric("depth", 2)
        r.family("histogram", "lat")
        r.metric("lat", 1.0)
        r.metric("lat", 3.0)
        assert to_prometheus(r.families) == (
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
        report = validate_prometheus(to_prometheus(r))
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
        r = Recorder()
        r.family("counter", "c_total", "", ("p",))
        r.metric("c_total", 1, 'a"b\\c\nd')
        text = to_prometheus(r.families)
        assert 'p="a\\"b\\\\c\\nd"' in text
        validate_prometheus(text)

    def test_snapshot_schema_and_shape(self):
        r = self._populated()
        doc = to_snapshot(r, experiment="t", seed=1)
        assert doc["schema"] == METRICS_SCHEMA
        assert doc["meta"] == {"experiment": "t", "seed": 1}
        assert set(doc["families"]) == {"req_total", "depth", "lat_units"}
        assert "lat_units_query_p99" in doc["derived"]

    def test_snapshot_double_run_byte_identical(self):
        docs = []
        for _ in range(2):
            docs.append(json.dumps(to_snapshot(self._populated(), seed=3),
                                   sort_keys=True))
        assert docs[0] == docs[1]

    def test_prometheus_double_run_byte_identical(self):
        assert to_prometheus(self._populated()) == \
            to_prometheus(self._populated())

    def test_overflow_reported_in_snapshot(self, monkeypatch):
        monkeypatch.setattr(metrics, "MAX_SERIES", 1)
        r = Recorder()
        r.family("counter", "c_total", "", ("u",))
        r.metric("c_total", 1, "a")
        r.metric("c_total", 1, "b")
        fam = to_snapshot(r.families)["families"]["c_total"]
        assert fam["overflowed"] == 1


class TestTracerReexport:
    def test_trace_and_metrics_percentiles_agree(self):
        from repro.observability.tracer import derived_metrics as trace_derived

        graph = ring_of_cliques_graph()
        rec = Recorder()
        rt = Runtime(num_threads=1, seed=7, recorder=rec)
        leiden(graph, LeidenConfig(seed=7), runtime=rt)
        root = trace_tree(rec)
        families = trace_families(root)
        assert families  # the run observed at least one distribution
        from_trace = trace_derived(root)
        reg_derived = derived_metrics({**rec.families, **families})
        for name in families:
            bare = name[len("trace_"):]
            for q in ("p50", "p99"):
                if f"{bare}_{q}" in from_trace:
                    assert reg_derived[f"{name}_{q}"] == \
                        from_trace[f"{bare}_{q}"]

    def test_exact_stats_survive_merge(self):
        t = Recorder()
        with t.span("s"):
            t.observe("batch_size", 4.0)
            t.observe("batch_size", 10.0)
        d = trace_families(trace_tree(t))["trace_batch_size"].series[()]
        assert d.count == 2
        assert d.sum == 14.0
        assert d.min == 4.0 and d.max == 10.0


class TestNullRegistry:
    def test_singleton_disabled(self):
        assert NULL_RECORDER.enabled is False
        assert NULL_RECORDER.families == {}

    def test_factories_return_noops(self):
        NULL_RECORDER.family("counter", "x_total", "", ("a",))
        NULL_RECORDER.metric("x_total", 5, "y")
        NULL_RECORDER.metric("never_registered", 1.0)
        assert NULL_RECORDER.families == {}

    def test_exposition_is_empty(self):
        assert to_prometheus(NULL_RECORDER.families) == ""
        doc = to_snapshot(NULL_RECORDER.families, seed=1)
        assert doc["families"] == {}

    def test_runtime_defaults_to_null_registry(self):
        rt = Runtime(num_threads=1, seed=0)
        assert rt.recorder is NULL_RECORDER
