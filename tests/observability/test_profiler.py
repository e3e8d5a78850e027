"""Tests for the thread timeline of a recorder and its Chrome view."""

import json

import numpy as np
import pytest

from repro.core.config import LeidenConfig
from repro.core.leiden import leiden
from repro.observability.profile_report import (
    analyze_timeline,
    convergence_rows,
    format_profile_report,
)
from repro.observability.profiler import (
    CAT_BARRIER,
    CAT_CHUNK,
    CAT_SERIAL,
    PROFILE_SCHEMA,
    chrome_trace_json,
    timeline,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.observability.recorder import NULL_RECORDER, Recorder
from repro.observability.tracer import trace_doc, trace_tree
from repro.parallel.costmodel import PAPER_MACHINE
from repro.parallel.runtime import Runtime
from repro.parallel.schedule import Schedule
from tests.conftest import ring_of_cliques_graph


class Profiled:
    """A recorded run and its timeline at the profile's thread count."""

    def __init__(self, recorder, num_threads):
        self.recorder = recorder
        self.num_threads = num_threads

    def timeline(self, num_threads=None):
        return timeline(self.recorder, num_threads or self.num_threads)

    @property
    def regions(self):
        return [r.record for r in self.timeline().regions]

    @property
    def marks(self):
        return [m for _, m in self.timeline().marks]


def profiled_run(seed=1, num_threads=8, **cfg):
    graph = ring_of_cliques_graph()
    rec = Recorder()
    rt = Runtime(num_threads=1, seed=seed, recorder=rec)
    result = leiden(graph, LeidenConfig(seed=seed, **cfg), runtime=rt)
    return graph, rec, Profiled(rec, num_threads), result


class TestCapture:
    def test_every_ledger_region_is_captured(self):
        _, _, profiler, result = profiled_run()
        assert len(profiler.regions) == len(result.ledger.regions)
        for rec, reg in zip(profiler.regions, result.ledger.regions):
            assert rec.kind == reg.kind
            assert rec.phase == reg.phase
            assert np.array_equal(rec.chunk_costs, reg.chunk_costs)

    def test_labels_carry_span_paths(self):
        _, _, profiler, _ = profiled_run()
        labels = {r.label for r in profiler.regions}
        assert any(label.startswith("leiden/pass[0]/") for label in labels)

    def test_disabled_profiler_captures_nothing(self):
        graph = ring_of_cliques_graph()
        rt = Runtime(num_threads=1, seed=1)
        assert rt.recorder is NULL_RECORDER
        leiden(graph, LeidenConfig(seed=1), runtime=rt)
        assert NULL_RECORDER.enabled is False
        assert timeline(NULL_RECORDER).regions == []

    def test_membership_identical_with_and_without_profiling(self):
        graph = ring_of_cliques_graph()
        plain = leiden(graph, LeidenConfig(seed=3))
        rt = Runtime(num_threads=1, seed=3, recorder=Recorder())
        profiled = leiden(graph, LeidenConfig(seed=3), runtime=rt)
        assert np.array_equal(plain.membership, profiled.membership)

    def test_convergence_marks_recorded(self):
        _, _, profiler, _ = profiled_run()
        names = {m.name for m in profiler.marks}
        assert {"move_delta_q", "refine_splits", "communities"} <= names


class TestTimeline:
    def test_matches_ledger_simulate_at_all_thread_counts(self):
        """Timeline totals equal WorkLedger.simulate within 1% at 1/8/32."""
        _, _, profiler, result = profiled_run()
        for T in (1, 8, 32):
            tl = profiler.timeline(T)
            sim = result.ledger.simulate(PAPER_MACHINE, T)
            assert tl.total_seconds == pytest.approx(sim.seconds, rel=0.01)
            for phase, sec in sim.phase_seconds.items():
                assert tl.phase_seconds()[phase] == pytest.approx(
                    sec, rel=0.01)

    def test_lanes_cover_regions_without_overlap(self):
        _, _, profiler, _ = profiled_run()
        tl = profiler.timeline(4)
        for tid in range(4):
            evs = sorted((e for e in tl.events if e.tid == tid),
                         key=lambda e: (e.start, e.end))
            for a, b in zip(evs, evs[1:]):
                assert b.start >= a.end - 1e-12

    def test_barrier_waits_close_each_region(self):
        _, _, profiler, _ = profiled_run()
        tl = profiler.timeline(4)
        for r in tl.regions:
            if r.record.kind != "parallel":
                continue
            waits = [e for e in tl.events
                     if e.cat == CAT_BARRIER
                     and e.args.get("region") == r.record.index]
            # Every wait ends exactly at the region end (the barrier).
            for e in waits:
                assert e.end == pytest.approx(r.end)

    def test_serial_regions_run_on_thread_zero(self):
        _, _, profiler, _ = profiled_run()
        tl = profiler.timeline(8)
        serial = [e for e in tl.events if e.cat == CAT_SERIAL]
        assert serial and all(e.tid == 0 for e in serial)

    def test_chunk_events_preserve_work_units(self):
        _, _, profiler, _ = profiled_run()
        tl = profiler.timeline(2)
        for r in tl.regions:
            if r.record.kind != "parallel":
                continue
            chunk_work = sum(
                e.args["work_units"] for e in tl.events
                if e.cat == CAT_CHUNK and e.args["region"] == r.record.index)
            assert chunk_work == pytest.approx(
                float(r.record.chunk_costs.sum()))

    def test_single_thread_has_no_imbalance(self):
        _, _, profiler, _ = profiled_run()
        tl = profiler.timeline(1)
        for r in tl.regions:
            assert r.imbalance_wait == pytest.approx(0.0)

    def test_static_schedule_round_robin(self):
        rec = Recorder()

        class R:
            kind = "parallel"
            phase = "x"
            chunk_costs = np.asarray([100.0, 100.0, 100.0, 100.0])
            schedule = Schedule("static", 1)
            atomics = 0.0

        rec.region(R())
        tl = timeline(rec, 2)
        owners = [e.tid for e in tl.events if e.cat == CAT_CHUNK]
        assert owners == [0, 1, 0, 1]

    def test_rejects_bad_thread_count(self):
        with pytest.raises(ValueError):
            timeline(Recorder(), 0)


class TestChromeExport:
    def test_schema_valid_with_one_lane_per_thread(self):
        _, _, profiler, _ = profiled_run(num_threads=8)
        doc = to_chrome_trace(profiler.timeline(), experiment="t")
        stats = validate_chrome_trace(doc)
        assert stats["named_lanes"] >= 8
        assert stats["events"] > 0

    def test_byte_identical_across_runs(self):
        docs = []
        for _ in range(2):
            _, _, profiler, _ = profiled_run(seed=5)
            doc = to_chrome_trace(profiler.timeline(), experiment="t",
                                  seed=5)
            docs.append(chrome_trace_json(doc))
        assert docs[0] == docs[1]

    def test_counter_events_from_marks(self):
        _, _, profiler, _ = profiled_run()
        doc = to_chrome_trace(profiler.timeline())
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert {e["name"] for e in counters} >= {"move_delta_q",
                                                 "communities"}

    def test_validator_rejects_broken_docs(self):
        _, _, profiler, _ = profiled_run()
        doc = to_chrome_trace(profiler.timeline())
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": doc["traceEvents"]})
        bad = json.loads(chrome_trace_json(doc))
        bad["otherData"]["schema"] = "nope/9"
        with pytest.raises(ValueError):
            validate_chrome_trace(bad)
        bad = json.loads(chrome_trace_json(doc))
        for ev in bad["traceEvents"]:
            if ev["ph"] == "X":
                ev["dur"] = -1.0
                break
        with pytest.raises(ValueError):
            validate_chrome_trace(bad)

    @staticmethod
    def _doc(*events):
        """A minimal valid document around ``events``."""
        return {"traceEvents": [{"ph": "M", "name": "thread_name",
                                 "pid": 0, "tid": 0,
                                 "args": {"name": "thread 0"}}, *events],
                "otherData": {"schema": PROFILE_SCHEMA, "num_threads": 1}}

    def test_validator_rejects_nested_spans_on_every_pid(self):
        # Every producer's lanes are sequential, so a span inside another
        # is an overlap on pid 3 as on the machine lanes.
        outer = {"ph": "X", "name": "serve", "pid": 3, "tid": 0,
                 "ts": 0.0, "dur": 10.0}
        inner = {"ph": "X", "name": "refresh", "pid": 3, "tid": 0,
                 "ts": 2.0, "dur": 3.0}
        validate_chrome_trace(self._doc(outer))
        with pytest.raises(ValueError, match="overlaps previous event"):
            validate_chrome_trace(self._doc(outer, inner))

    def test_validator_rejects_flow_events(self):
        flow = {"ph": "s", "name": "hop", "pid": 0, "tid": 0, "ts": 0.0,
                "id": 1}
        with pytest.raises(ValueError, match="unknown phase type 's'"):
            validate_chrome_trace(self._doc(flow))

    def test_service_requests_get_their_own_lane(self):
        rec = Recorder()
        rec.request("service.query", 10.0, 0.001, status="done")
        rec.request("service.detect", 500.0, 0.01, status="done")
        doc = to_chrome_trace(timeline(rec, 2))
        svc = [e for e in doc["traceEvents"]
               if e.get("pid") == 1 and e["ph"] == "X"]
        assert [e["name"] for e in svc] == ["service.query",
                                            "service.detect"]
        # Sequential on the logical clock.
        assert svc[1]["ts"] == pytest.approx(svc[0]["ts"] + svc[0]["dur"])


class TestReport:
    def test_report_is_deterministic_text(self):
        outs = []
        for _ in range(2):
            _, tracer, profiler, _ = profiled_run()
            outs.append(format_profile_report(
                profiler.timeline(), trace_doc=trace_doc(tracer), top=3,
                title="ring"))
        assert outs[0] == outs[1]
        assert "per-phase attribution" in outs[0]
        assert "scheduling-policy attribution" in outs[0]
        assert "convergence monitor" in outs[0]
        assert "local_move" in outs[0]

    def test_imbalance_factor_is_max_over_mean(self):
        _, _, profiler, _ = profiled_run()
        tl = profiler.timeline(4)
        phases, regions, _ = analyze_timeline(tl)
        for p in phases:
            assert p.imbalance >= 1.0 - 1e-9
        for r in regions:
            assert r.imbalance >= 1.0 - 1e-9
            assert 0.0 <= r.barrier_share <= 1.0 + 1e-9

    def test_attribution_consistent_with_speedup(self):
        """The barrier-wait/imbalance attribution exactly accounts for
        the gap between the critical path and the modelled region time,
        at every thread count the costmodel's speedup curve covers."""
        _, _, profiler, _ = profiled_run()
        for T in (1, 8, 32):
            phases, _, _ = analyze_timeline(profiler.timeline(T))
            for p in phases:
                # Region span beyond the slowest thread is barrier cost.
                assert p.seconds - p.critical_busy == pytest.approx(
                    p.barrier_cost / T, abs=1e-15)
                # Skew wait is exactly the idle thread-seconds.
                assert p.barrier_wait == pytest.approx(
                    T * p.critical_busy - p.busy_seconds, abs=1e-12)

    def test_convergence_rows_extracted_from_trace(self):
        _, tracer, _, result = profiled_run()
        rows = convergence_rows(trace_doc(tracer))
        assert len(rows) == result.num_passes
        first = rows[0]
        assert first["iterations"] >= 1
        assert first["delta_q"] > 0.0
        assert first["visited"] > 0
        assert 0.0 < first["shrink_ratio"] <= 1.0
        # ΔQ per iteration is non-increasing in practice on this graph.
        assert first["delta_q_series"][0] == max(first["delta_q_series"])


class TestKernelDispatchCounters:
    def test_count_engine_counts_kernels(self):
        _, tracer, _, _ = profiled_run(engine="batch")
        totals = trace_tree(tracer).counter_totals()
        assert totals["kernel_count_pair_sums"] > 0
        assert totals["kernel_count_argmax"] > 0
        assert totals["kernel_count_scatter_add"] > 0
        assert not any(k.startswith("kernel_sort_") for k in totals)
