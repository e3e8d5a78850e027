"""Tests for the trace: the span tree a recorder's events project to."""

import json

import numpy as np
import pytest

from repro.core.config import LeidenConfig
from repro.core.leiden import leiden
from repro.observability.recorder import NULL_RECORDER, Recorder
from repro.observability.tracer import (
    TRACE_SCHEMA,
    bucket_percentile,
    derived_metrics,
    format_span_path,
    trace_doc,
    trace_tree,
)
from repro.parallel.runtime import Runtime
from tests.conftest import ring_of_cliques_graph


def totals(rec):
    return trace_tree(rec).counter_totals()


class TestSpanTree:
    def test_nesting(self):
        t = Recorder()
        with t.span("outer"):
            with t.span("inner"):
                pass
            with t.span("inner2"):
                pass
        (outer,) = trace_tree(t).children
        assert outer.name == "outer"
        assert [c.name for c in outer.children] == ["inner", "inner2"]

    def test_span_records_seconds(self):
        t = Recorder()
        with t.span("s"):
            pass
        (s,) = trace_tree(t).children
        assert s.seconds >= 0.0
        assert t.events[-1][0] == "close"

    def test_attrs_via_kwargs_and_set(self):
        t = Recorder()
        with t.span("s", engine="batch"):
            t.set(iterations=3)
        (s,) = trace_tree(t).children
        assert s.attrs == {"engine": "batch", "iterations": 3}

    def test_span_closes_on_exception(self):
        t = Recorder()
        with pytest.raises(RuntimeError):
            with t.span("s"):
                raise RuntimeError("boom")
        t.count("after")  # lands on the root: the span closed
        root = trace_tree(t)
        assert root.children[0].seconds >= 0.0
        assert root.counters == {"after": 1.0}


class TestExceptionSafety:
    """A span whose body raises must still record seconds and close."""

    def test_raising_span_records_seconds_and_emits(self):
        t = Recorder()
        with pytest.raises(ValueError):
            with t.span("s"):
                raise ValueError("boom")
        (s,) = trace_tree(t).children
        assert s.seconds > 0.0
        # The emitted trace carries the span with its seconds.
        doc = trace_doc(t)
        assert doc["spans"][0]["name"] == "s"
        assert doc["spans"][0]["seconds"] == s.seconds

    def test_leiden_spans_close_when_phase_raises(self):
        """Regression: the run and pass spans close with seconds when a
        phase body raises mid-pass."""
        from unittest import mock

        from repro.core.config import LeidenConfig
        from repro.core.leiden import leiden
        from repro.parallel.runtime import Runtime

        graph = ring_of_cliques_graph()
        rec = Recorder()
        rt = Runtime(num_threads=1, seed=1, recorder=rec)
        with mock.patch("repro.core.leiden.local_move_batch",
                        side_effect=RuntimeError("boom")):
            with pytest.raises(RuntimeError):
                leiden(graph, LeidenConfig(seed=1), runtime=rt)
        kinds = [ev[0] for ev in rec.events]
        assert kinds.count("open") == kinds.count("close")
        (run,) = trace_tree(rec).children
        assert run.name == "leiden"
        assert run.seconds > 0.0
        (pass_span,) = [c for c in run.children if c.name == "pass"]
        assert pass_span.seconds > 0.0
        mv = [c for c in pass_span.children if c.name == "local_move"]
        assert mv and mv[0].seconds > 0.0


class TestSeries:
    def test_record_appends_ordered_series(self):
        t = Recorder()
        with t.span("s"):
            t.series("dq", 0.5)
            t.series("dq", 0.25)
            t.series("visited", 10)
        (s,) = trace_tree(t).children
        assert s.series == {"dq": [0.5, 0.25], "visited": [10.0]}

    def test_series_serialized_in_span_dict(self):
        t = Recorder()
        with t.span("s"):
            t.series("dq", 1.0)
        span = trace_doc(t)["spans"][0]
        assert span["series"] == {"dq": [1.0]}
        json.dumps(span)

    def test_empty_series_omitted(self):
        t = Recorder()
        with t.span("s"):
            pass
        assert "series" not in trace_doc(t)["spans"][0]

    def test_null_tracer_record_is_noop(self):
        t = NULL_RECORDER
        with t.span("s"):
            t.series("dq", 1.0)
        assert trace_doc(t)["spans"] == []


class TestSpanPath:
    def test_path_joins_open_spans_with_index(self):
        t = Recorder()
        with t.span("leiden"):
            with t.span("pass", index=1):
                with t.span("local_move"):
                    pass
        (run,) = trace_tree(t).children
        (pass_span,) = run.children
        path = [run, pass_span, pass_span.children[0]]
        assert format_span_path(path) == "leiden/pass[1]/local_move"
        assert format_span_path(path[:1]) == "leiden"

    def test_null_tracer_path_empty(self):
        assert format_span_path(()) == ""

    def test_single_implementation_behind_both_tracers(self):
        # Regression: region labels once had their own formatting rule
        # beside the trace's; the timeline labels regions with
        # format_span_path, the one rule.
        import numpy as np

        from repro.observability.profiler import timeline

        t = Recorder()
        rt = Runtime(num_threads=2, recorder=t)
        with t.span("leiden"):
            with t.span("pass", index=2):
                rt.record_parallel(np.ones(8), phase="local_move")
        (run,) = trace_tree(t).children
        label = format_span_path([run, run.children[0]])
        assert [r.record.label for r in timeline(t, 2).regions] == [label]

    def test_runtime_region_labels_use_span_path_at_both_call_sites(self):
        # The two parallel/runtime.py call sites — parallel regions and
        # serial sections — must label timeline regions with the same
        # span path the trace reports.
        import numpy as np

        from repro.observability.profiler import timeline

        t = Recorder()
        rt = Runtime(num_threads=2, recorder=t)
        with t.span("leiden"):
            with t.span("pass", index=1):
                rt.record_parallel(np.ones(8), phase="local_move")
                rt.record_serial(4.0, phase="aggregate")
        labels = {r.record.label for r in timeline(t, 2).regions}
        assert labels == {"leiden/pass[1]"}


class TestCounters:
    def test_count_lands_on_innermost_span(self):
        t = Recorder()
        with t.span("a"):
            t.count("x")
            with t.span("b"):
                t.count("x", 5)
        root = trace_tree(t)
        a = root.children[0]
        b = a.children[0]
        assert a.counters == {"x": 1.0}
        assert b.counters == {"x": 5.0}
        assert root.counter_totals() == {"x": 6.0}

    def test_observe_tracks_min_max_sum(self):
        t = Recorder()
        for v in (4.0, 1.0, 7.0):
            t.observe("batch_size", v)
        s = trace_tree(t).stats["batch_size"]
        assert s == {"count": 3.0, "sum": 12.0, "min": 1.0, "max": 7.0}

    def test_derived_pruning_hit_rate(self):
        t = Recorder()
        t.count("pruning_visited", 30)
        t.count("pruning_skipped", 70)
        d = derived_metrics(trace_tree(t))
        assert d["pruning_hit_rate"] == pytest.approx(0.7)

    def test_derived_per_region_ratios(self):
        t = Recorder()
        t.count("parallel_regions", 4)
        t.count("atomic_ops", 40)
        t.count("clock_skew_units", 2.0)
        d = derived_metrics(trace_tree(t))
        assert d["atomics_per_region"] == pytest.approx(10.0)
        assert d["skew_units_per_region"] == pytest.approx(0.5)

    def test_derived_empty_without_counters(self):
        assert derived_metrics(trace_tree(Recorder())) == {}


class TestObservationHistograms:
    def test_observe_fills_power_of_two_buckets(self):
        t = Recorder()
        for v in (0.4, 0.6, 3.0, 0.0):
            t.observe("lat", v)
        hist = trace_tree(t).buckets["lat"]
        # 0.4 -> 2^-1 bucket, 0.6 -> 2^0, 3.0 -> 2^2, 0.0 -> zero bucket
        assert hist[-1] == 1
        assert hist[0] == 1
        assert hist[2] == 1
        assert sum(hist.values()) == 4

    def test_bucket_totals_merge_subtree(self):
        t = Recorder()
        with t.span("a"):
            t.observe("lat", 1.0)
            with t.span("b"):
                t.observe("lat", 1.5)
        totals = trace_tree(t).bucket_totals()
        assert sum(totals["lat"].values()) == 2

    def test_bucket_percentile_nearest_rank(self):
        # 99 samples in bucket 0 (values ~0.75), 1 in bucket 10.
        buckets = {0: 99, 10: 1}
        assert bucket_percentile(buckets, 50.0) == pytest.approx(0.75)
        assert bucket_percentile(buckets, 100.0) == pytest.approx(768.0)
        assert bucket_percentile({}, 50.0) == 0.0

    def test_derived_metrics_expose_p50_p99(self):
        t = Recorder()
        for v in [0.001] * 98 + [1.0, 2.0]:
            t.observe("service_latency", v)
        d = derived_metrics(trace_tree(t))
        assert d["service_latency_p50"] == pytest.approx(0.75 * 2**-9)
        assert d["service_latency_p99"] >= 0.5

    def test_buckets_serialized_in_span_dict(self):
        t = Recorder()
        with t.span("s"):
            t.observe("x", 1.0)
        span = trace_doc(t)["spans"][0]
        assert span["buckets"] == {"x": {"1": 1}}
        json.dumps(span)  # JSON-ready (string keys)

    def test_stats_dict_shape_unchanged_by_buckets(self):
        """The min/max/sum stats block keeps its exact legacy shape."""
        t = Recorder()
        t.observe("x", 2.0)
        assert trace_tree(t).stats["x"] == {
            "count": 1.0, "sum": 2.0, "min": 2.0, "max": 2.0}


class TestJsonEmission:
    def test_schema_and_shape(self):
        t = Recorder()
        with t.span("leiden"):
            t.count("c", 1)
        doc = trace_doc(t, experiment="x", seed=42)
        assert doc["schema"] == TRACE_SCHEMA
        assert doc["meta"] == {"experiment": "x", "seed": 42}
        assert doc["counters"] == {"c": 1.0}
        assert doc["spans"][0]["name"] == "leiden"

    def test_json_is_sorted_and_stable(self):
        t = Recorder()
        t.count("b", 1)
        t.count("a", 1)
        one = json.dumps(trace_doc(t, z=1, a=2), sort_keys=True)
        two = json.dumps(trace_doc(t, z=1, a=2), sort_keys=True)
        assert one == two
        assert one.index('"a"') < one.index('"b"')

    def test_empty_sections_omitted_per_span(self):
        t = Recorder()
        with t.span("bare"):
            pass
        span = trace_doc(t)["spans"][0]
        assert "counters" not in span
        assert "stats" not in span
        assert "children" not in span


class TestNullTracer:
    def test_disabled_flag(self):
        assert NULL_RECORDER.enabled is False
        assert Recorder.enabled is True

    def test_span_is_shared_noop(self):
        t = NULL_RECORDER
        with t.span("a") as s1:
            t.set(x=1)
            t.count("c")
            t.observe("o", 2.0)
        assert s1 is None
        assert t.span("b") is t.span("c")  # one shared context, no allocation
        assert t.phase("other", "d") is t.span("b")

    def test_collects_nothing(self):
        t = NULL_RECORDER
        with t.span("a"):
            t.count("x", 5)
            t.observe("y", 1.0)
        assert t.events == []
        assert totals(t) == {}
        doc = trace_doc(t, meta_key="v")
        assert doc["spans"] == [] and doc["counters"] == {}


class TestLeidenIntegration:
    @pytest.fixture(scope="class")
    def traced(self):
        graph = ring_of_cliques_graph()
        rec = Recorder()
        rt = Runtime(num_threads=1, seed=1, recorder=rec)
        result = leiden(graph, LeidenConfig(seed=1), runtime=rt)
        return trace_tree(rec), result

    def test_span_tree_is_run_pass_phase(self, traced):
        root, result = traced
        (run,) = root.children
        assert run.name == "leiden"
        passes = [c for c in run.children if c.name == "pass"]
        assert len(passes) == result.num_passes
        phases = {c.name for c in passes[0].children}
        assert {"init", "local_move", "refine", "aggregate"} <= phases

    def test_runtime_counters_flow_through(self, traced):
        root, _ = traced
        totals = root.counter_totals()
        assert totals["parallel_regions"] > 0
        assert totals["barriers"] > 0
        assert totals["atomic_ops"] > 0
        assert totals["work_units"] > 0
        assert totals["local_moves"] > 0

    def test_pass_spans_carry_attrs(self, traced):
        root, _ = traced
        (run,) = root.children
        first = next(c for c in run.children if c.name == "pass")
        assert first.attrs["index"] == 0
        assert "communities" in first.attrs

    def test_membership_identical_with_and_without_tracing(self):
        graph = ring_of_cliques_graph()
        plain = leiden(graph, LeidenConfig(seed=7))
        rt = Runtime(num_threads=1, seed=7, recorder=Recorder())
        traced = leiden(graph, LeidenConfig(seed=7), runtime=rt)
        assert np.array_equal(plain.membership, traced.membership)
