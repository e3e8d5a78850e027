"""Tests for the deterministic memory report (repro.observability.memtrack)."""

import json

import pytest

from repro.core.config import LeidenConfig
from repro.core.leiden import leiden
from repro.observability import memtrack
from repro.observability.memtrack import (
    MEMORY_SCHEMA,
    MemoryView,
    validate_memory_doc,
)
from repro.observability.profiler import validate_chrome_trace
from repro.observability.recorder import (
    NULL_RECORDER,
    Recorder,
    activate,
    active,
    record_csr,
)
from repro.parallel.runtime import Runtime
from tests.conftest import random_graph, two_cliques_graph


class TestLedgerAccounting:
    def test_alloc_free_roundtrip(self):
        rec = Recorder()
        h = rec.alloc("csr", "offsets", 800, phase="other", dtype="int64")
        assert MemoryView(rec).live_bytes() == 800
        assert MemoryView(rec).peak_bytes() == 800
        rec.free(h)
        assert MemoryView(rec).live_bytes() == 0
        assert MemoryView(rec).peak_bytes() == 800  # watermark survives the free

    def test_resize_moves_live_and_peak(self):
        rec = Recorder()
        h = rec.alloc("store", "entry", 100)
        rec.resize(h, 300)
        assert MemoryView(rec).live_bytes() == 300
        assert MemoryView(rec).peak_bytes() == 300
        rec.resize(h, 50)
        assert MemoryView(rec).live_bytes() == 50
        assert MemoryView(rec).peak_bytes() == 300

    def test_free_is_idempotent(self):
        rec = Recorder()
        h = rec.alloc("a", "x", 10)
        rec.free(h)
        rec.free(h)
        assert MemoryView(rec).live_bytes() == 0
        assert MemoryView(rec).clock == 2  # second free records nothing

    def test_unknown_handle_noops(self):
        rec = Recorder()
        rec.free(999)
        rec.resize(999, 10)
        assert MemoryView(rec).clock == 0

    def test_per_component_watermarks(self):
        rec = Recorder()
        a = rec.alloc("csr", "x", 100)
        rec.alloc("workspace", "y", 40)
        rec.free(a)
        assert MemoryView(rec).live_bytes("csr") == 0
        assert MemoryView(rec).peak_bytes("csr") == 100
        assert MemoryView(rec).live_bytes("workspace") == 40
        assert MemoryView(rec).live_bytes() == 40
        assert MemoryView(rec).peak_bytes() == 140

    def test_per_phase_watermarks(self):
        rec = Recorder()
        h = rec.alloc("a", "x", 64, phase="local_move")
        rec.alloc("a", "y", 32, phase="refine")
        rec.free(h)
        assert MemoryView(rec).phase_peak_bytes("local_move") == 64
        assert MemoryView(rec).phase_peak_bytes("refine") == 32
        assert MemoryView(rec).phase_peak_bytes("aggregate") == 0

    def test_replicas_scale_physical_not_logical(self):
        rec = Recorder()
        rec.alloc("shm", "scratch", 1000, replicas=4)
        snap = MemoryView(rec).to_snapshot()
        assert snap["logical"]["live_bytes"] == 1000
        assert snap["physical"]["live_bytes"] == 4000
        assert snap["physical"]["peak_bytes"] == 4000

    def test_attach_is_physical_only(self):
        rec = Recorder()
        rec.attach("procpool", "arena_map", 500, replicas=3)
        snap = MemoryView(rec).to_snapshot()
        assert snap["logical"]["clock"] == 0
        assert snap["logical"]["live_bytes"] == 0
        assert snap["physical"]["attached_bytes"] == 1500
        assert snap["physical"]["attach_events"] == 1

    def test_clock_counts_events(self):
        rec = Recorder()
        h = rec.alloc("a", "x", 1)
        rec.resize(h, 2)
        rec.free(h)
        assert MemoryView(rec).clock == 3


class TestAllocationTrace:
    def test_largest_first_with_handle_tiebreak(self):
        rec = Recorder()
        rec.alloc("csr", "targets", 500, phase="other")
        rec.alloc("state", "membership", 900, phase="local_move")
        rec.alloc("csr", "weights", 500, phase="other")
        trace = MemoryView(rec).allocation_trace()
        assert trace[0].startswith("state/membership phase=local_move 900")
        # 500-byte tie breaks on allocation order.
        assert "csr/targets" in trace[1]
        assert "csr/weights" in trace[2]

    def test_limit(self):
        rec = Recorder()
        for i in range(5):
            rec.alloc("a", f"b{i}", 10 * (i + 1))
        assert len(MemoryView(rec).allocation_trace(limit=2)) == 2


class TestSnapshot:
    def test_schema_and_sections(self):
        rec = Recorder()
        rec.alloc("csr", "offsets", 8, dtype="int64")
        snap = MemoryView(rec).to_snapshot(experiment="t", seed=1)
        assert snap["schema"] == MEMORY_SCHEMA
        assert snap["meta"] == {"experiment": "t", "seed": 1}
        assert set(snap) == {"schema", "meta", "logical", "physical",
                             "events"}
        assert snap["logical"]["components"]["csr"]["allocs"] == 1
        assert snap["events"][0]["dtype"] == "int64"

    def test_double_run_byte_identical(self):
        def run():
            rec = Recorder()
            a = rec.alloc("csr", "x", 100, phase="other")
            rec.alloc("workspace", "y", 50, phase="local_move", replicas=2)
            rec.resize(a, 200)
            rec.free(a)
            return json.dumps(MemoryView(rec).to_snapshot(seed=7), sort_keys=True)

        assert run() == run()

    def test_validate_replays_events(self):
        rec = Recorder()
        a = rec.alloc("a", "x", 100)
        rec.resize(a, 250)
        rec.alloc("b", "y", 50)
        rec.free(a)
        stats = validate_memory_doc(MemoryView(rec).to_snapshot())
        assert stats["events_replayed"] == 4
        assert stats["live_bytes"] == 50
        assert stats["peak_bytes"] == 300

    def test_validate_rejects_tampered_totals(self):
        rec = Recorder()
        rec.alloc("a", "x", 100)
        doc = MemoryView(rec).to_snapshot()
        doc["logical"]["live_bytes"] = 99
        with pytest.raises(ValueError, match="replay"):
            validate_memory_doc(doc)

    def test_validate_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="schema"):
            validate_memory_doc({"schema": "repro.memory/9", "logical": {}})

    def test_max_events_cap_is_never_silent(self, monkeypatch):
        monkeypatch.setattr(memtrack, "MAX_EVENTS", 3)
        rec = Recorder()
        for i in range(5):
            rec.alloc("a", f"x{i}", 10)
        snap = MemoryView(rec).to_snapshot()
        assert len(snap["events"]) == 3
        assert snap["logical"]["events_dropped"] == 2
        assert snap["logical"]["live_bytes"] == 50  # accounting continues
        # Replay verification is skipped for truncated documents.
        assert validate_memory_doc(snap)["events_replayed"] is None


class TestChromeView:
    def _recorded(self):
        rec = Recorder()
        a = rec.alloc("csr", "x", 100)
        rec.alloc("workspace", "y", 50)
        rec.resize(a, 300)
        rec.free(a)
        return rec

    def test_counter_lane_tracks_live_bytes(self):
        rec = self._recorded()
        events = MemoryView(rec).chrome_events()
        counters = [e for e in events if e["ph"] == "C"]
        assert len(counters) == 4
        assert counters[-1]["args"] == {"csr": 0, "workspace": 50}
        # The resize sample reflects the delta, not the raw new size.
        assert counters[2]["args"]["csr"] == 300

    def test_standalone_doc_validates(self):
        doc = MemoryView(self._recorded()).to_chrome_trace(experiment="t")
        stats = validate_chrome_trace(doc)
        assert stats["events"] > 0

    def test_empty_ledger_doc_validates(self):
        stats = validate_chrome_trace(MemoryView(Recorder()).to_chrome_trace())
        assert stats["events"] >= 1


class TestNullLedger:
    def test_disabled_and_inert(self):
        rec = NULL_RECORDER
        assert not rec.enabled
        h = rec.alloc("a", "x", 100)
        rec.resize(h, 5)
        rec.free(h)
        rec.attach("a", "y", 10)
        view = MemoryView(rec)
        assert view.live_bytes() == 0
        assert view.peak_bytes("a") == 0
        assert view.phase_peak_bytes("p") == 0
        assert view.live_allocations() == []
        assert view.allocation_trace() == []
        assert view.chrome_events() == []

    def test_shared_instance_is_default_active(self):
        assert active() is NULL_RECORDER


class TestActivate:
    def test_installs_and_restores(self):
        rec = Recorder()
        with activate(rec):
            assert active() is rec
        assert active() is NULL_RECORDER

    def test_reentrant(self):
        outer, inner = Recorder(), Recorder()
        with activate(outer):
            with activate(inner):
                assert active() is inner
            assert active() is outer

    def test_none_means_disabled(self):
        with activate(None):
            assert active() is NULL_RECORDER

    def test_leiden_restores_scopes_when_phase_raises(self):
        """A phase that raises leaves no memory scope behind: the active
        recorder and its phase are restored, and so is the runtime's work
        ledger that the pass swapped out."""
        from unittest import mock

        seen = []

        def failing_aggregate(*args, **kwargs):
            seen.append((active().current_phase, active()))
            raise RuntimeError("boom")

        rec = Recorder()
        rt = Runtime(num_threads=1, seed=1, recorder=rec)
        run_ledger = rt.ledger
        with mock.patch("repro.core.leiden.aggregate_batch",
                        side_effect=failing_aggregate):
            with pytest.raises(RuntimeError):
                leiden(random_graph(200, seed=3), LeidenConfig(seed=1),
                       runtime=rt)
        assert seen == [("aggregate", rec)]
        assert rec.current_phase == "other"
        assert active() is NULL_RECORDER
        assert rt.ledger is run_ledger

    def test_phase_scope_nests(self):
        rec = Recorder()
        assert rec.current_phase == "other"
        with rec.phase("aggregate"):
            assert rec.current_phase == "aggregate"
            with rec.phase("refine"):
                assert rec.current_phase == "refine"
                handle = rec.alloc("a", "x", 8)
            assert rec.current_phase == "aggregate"
        assert rec.current_phase == "other"
        assert MemoryView(rec).live_allocations()[handle]["phase"] == "refine"


class TestRecordCsr:
    def test_charges_all_four_arrays(self):
        g = two_cliques_graph()
        rec = Recorder()
        handles = record_csr(rec, g)
        assert len(handles) == 4
        expected = (g.offsets.nbytes + g.targets.nbytes
                    + g.weights.nbytes + g.degrees.nbytes)
        assert MemoryView(rec).live_bytes("csr") == expected

    def test_disabled_ledger_is_free(self):
        assert record_csr(NULL_RECORDER, two_cliques_graph()) == []


class TestEndToEnd:
    def test_leiden_run_populates_ledger(self):
        g = random_graph(n=300, avg_degree=6, seed=5)
        rec = Recorder()
        record_csr(rec, g)
        with Runtime(num_threads=1, seed=42, recorder=rec) as rt:
            leiden(g, LeidenConfig(seed=42), runtime=rt)
        snap = MemoryView(rec).to_snapshot()
        validate_memory_doc(snap)
        comps = snap["logical"]["components"]
        assert "csr" in comps and "workspace" in comps
        # Aggregation builds coarser CSR graphs under the active ledger.
        assert snap["logical"]["phases"].get(
            "aggregate", {}).get("peak_bytes", 0) > 0

    def test_double_run_byte_identical(self):
        def run():
            g = random_graph(n=300, avg_degree=6, seed=5)
            rec = Recorder()
            record_csr(rec, g)
            with Runtime(num_threads=1, seed=42, recorder=rec) as rt:
                leiden(g, LeidenConfig(seed=42), runtime=rt)
            return json.dumps(MemoryView(rec).to_snapshot(seed=42), sort_keys=True)

        assert run() == run()

    def test_disabled_runtime_records_nothing(self):
        g = random_graph(n=200, avg_degree=5, seed=3)
        with Runtime(num_threads=1, seed=42) as rt:
            assert rt.recorder is NULL_RECORDER
            leiden(g, LeidenConfig(seed=42), runtime=rt)
        assert active() is NULL_RECORDER
