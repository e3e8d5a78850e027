"""Tests for the deterministic memory ledger (repro.observability.memtrack)."""

import pytest

from repro.core.config import LeidenConfig
from repro.core.leiden import leiden
from repro.observability import memtrack
from repro.observability.memtrack import (
    MEMORY_SCHEMA,
    NULL_LEDGER,
    MemoryLedger,
    NullLedger,
    activate,
    active_ledger,
    record_csr,
    validate_memory_doc,
)
from repro.observability.profiler import validate_chrome_trace
from repro.parallel.runtime import Runtime
from tests.conftest import random_graph, two_cliques_graph


class TestLedgerAccounting:
    def test_alloc_free_roundtrip(self):
        led = MemoryLedger()
        h = led.alloc("csr", "offsets", 800, phase="other", dtype="int64")
        assert led.live_bytes() == 800
        assert led.peak_bytes() == 800
        led.free(h)
        assert led.live_bytes() == 0
        assert led.peak_bytes() == 800  # watermark survives the free

    def test_resize_moves_live_and_peak(self):
        led = MemoryLedger()
        h = led.alloc("store", "entry", 100)
        led.resize(h, 300)
        assert led.live_bytes() == 300
        assert led.peak_bytes() == 300
        led.resize(h, 50)
        assert led.live_bytes() == 50
        assert led.peak_bytes() == 300

    def test_free_is_idempotent(self):
        led = MemoryLedger()
        h = led.alloc("a", "x", 10)
        led.free(h)
        led.free(h)
        assert led.live_bytes() == 0
        assert led.clock == 2  # second free records nothing

    def test_unknown_handle_noops(self):
        led = MemoryLedger()
        led.free(999)
        led.resize(999, 10)
        assert led.clock == 0

    def test_per_component_watermarks(self):
        led = MemoryLedger()
        a = led.alloc("csr", "x", 100)
        led.alloc("workspace", "y", 40)
        led.free(a)
        assert led.live_bytes("csr") == 0
        assert led.peak_bytes("csr") == 100
        assert led.live_bytes("workspace") == 40
        assert led.live_bytes() == 40
        assert led.peak_bytes() == 140

    def test_per_phase_watermarks(self):
        led = MemoryLedger()
        h = led.alloc("a", "x", 64, phase="local_move")
        led.alloc("a", "y", 32, phase="refine")
        led.free(h)
        assert led.phase_peak_bytes("local_move") == 64
        assert led.phase_peak_bytes("refine") == 32
        assert led.phase_peak_bytes("aggregate") == 0

    def test_replicas_scale_physical_not_logical(self):
        led = MemoryLedger()
        led.alloc("shm", "scratch", 1000, replicas=4)
        snap = led.to_snapshot()
        assert snap["logical"]["live_bytes"] == 1000
        assert snap["physical"]["live_bytes"] == 4000
        assert snap["physical"]["peak_bytes"] == 4000

    def test_attach_is_physical_only(self):
        led = MemoryLedger()
        led.attach("procpool", "arena_map", 500, replicas=3)
        snap = led.to_snapshot()
        assert snap["logical"]["clock"] == 0
        assert snap["logical"]["live_bytes"] == 0
        assert snap["physical"]["attached_bytes"] == 1500
        assert snap["physical"]["attach_events"] == 1

    def test_clock_counts_events(self):
        led = MemoryLedger()
        h = led.alloc("a", "x", 1)
        led.resize(h, 2)
        led.free(h)
        assert led.clock == 3


class TestAllocationTrace:
    def test_largest_first_with_handle_tiebreak(self):
        led = MemoryLedger()
        led.alloc("csr", "targets", 500, phase="other")
        led.alloc("state", "membership", 900, phase="local_move")
        led.alloc("csr", "weights", 500, phase="other")
        trace = led.allocation_trace()
        assert trace[0].startswith("state/membership phase=local_move 900")
        # 500-byte tie breaks on allocation order.
        assert "csr/targets" in trace[1]
        assert "csr/weights" in trace[2]

    def test_limit(self):
        led = MemoryLedger()
        for i in range(5):
            led.alloc("a", f"b{i}", 10 * (i + 1))
        assert len(led.allocation_trace(limit=2)) == 2


class TestSnapshot:
    def test_schema_and_sections(self):
        led = MemoryLedger()
        led.alloc("csr", "offsets", 8, dtype="int64")
        snap = led.to_snapshot(experiment="t", seed=1)
        assert snap["schema"] == MEMORY_SCHEMA
        assert snap["meta"] == {"experiment": "t", "seed": 1}
        assert set(snap) == {"schema", "meta", "logical", "physical",
                             "events"}
        assert snap["logical"]["components"]["csr"]["allocs"] == 1
        assert snap["events"][0]["dtype"] == "int64"

    def test_double_run_byte_identical(self):
        def run():
            led = MemoryLedger()
            a = led.alloc("csr", "x", 100, phase="other")
            led.alloc("workspace", "y", 50, phase="local_move", replicas=2)
            led.resize(a, 200)
            led.free(a)
            return led.to_json(seed=7)

        assert run() == run()

    def test_validate_replays_events(self):
        led = MemoryLedger()
        a = led.alloc("a", "x", 100)
        led.resize(a, 250)
        led.alloc("b", "y", 50)
        led.free(a)
        stats = validate_memory_doc(led.to_snapshot())
        assert stats["events_replayed"] == 4
        assert stats["live_bytes"] == 50
        assert stats["peak_bytes"] == 300

    def test_validate_rejects_tampered_totals(self):
        led = MemoryLedger()
        led.alloc("a", "x", 100)
        doc = led.to_snapshot()
        doc["logical"]["live_bytes"] = 99
        with pytest.raises(ValueError, match="replay"):
            validate_memory_doc(doc)

    def test_validate_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="schema"):
            validate_memory_doc({"schema": "repro.memory/9", "logical": {}})

    def test_max_events_cap_is_never_silent(self):
        led = MemoryLedger(max_events=3)
        for i in range(5):
            led.alloc("a", f"x{i}", 10)
        snap = led.to_snapshot()
        assert len(snap["events"]) == 3
        assert snap["logical"]["events_dropped"] == 2
        assert snap["logical"]["live_bytes"] == 50  # accounting continues
        # Replay verification is skipped for truncated documents.
        assert validate_memory_doc(snap)["events_replayed"] is None


class TestChromeView:
    def _ledger(self):
        led = MemoryLedger()
        a = led.alloc("csr", "x", 100)
        led.alloc("workspace", "y", 50)
        led.resize(a, 300)
        led.free(a)
        return led

    def test_counter_lane_tracks_live_bytes(self):
        led = self._ledger()
        events = led.chrome_events()
        counters = [e for e in events if e["ph"] == "C"]
        assert len(counters) == 4
        assert counters[-1]["args"] == {"csr": 0, "workspace": 50}
        # The resize sample reflects the delta, not the raw new size.
        assert counters[2]["args"]["csr"] == 300

    def test_standalone_doc_validates(self):
        doc = self._ledger().to_chrome_trace(experiment="t")
        stats = validate_chrome_trace(doc)
        assert stats["events"] > 0

    def test_empty_ledger_doc_validates(self):
        stats = validate_chrome_trace(MemoryLedger().to_chrome_trace())
        assert stats["events"] >= 1


class TestNullLedger:
    def test_disabled_and_inert(self):
        led = NullLedger()
        assert not led.enabled
        h = led.alloc("a", "x", 100)
        led.resize(h, 5)
        led.free(h)
        led.attach("a", "y", 10)
        assert led.live_bytes() == 0
        assert led.peak_bytes("a") == 0
        assert led.phase_peak_bytes("p") == 0
        assert led.live_allocations() == []
        assert led.allocation_trace() == []
        assert led.chrome_events() == []

    def test_shared_instance_is_default_active(self):
        assert active_ledger() is NULL_LEDGER


class TestActivate:
    def test_installs_and_restores(self):
        led = MemoryLedger()
        with activate(led):
            assert active_ledger() is led
        assert active_ledger() is NULL_LEDGER

    def test_reentrant(self):
        outer, inner = MemoryLedger(), MemoryLedger()
        with activate(outer):
            with activate(inner):
                assert active_ledger() is inner
            assert active_ledger() is outer

    def test_none_means_disabled(self):
        with activate(None):
            assert active_ledger() is NULL_LEDGER

    def test_phase_scope_nests(self):
        assert memtrack.active_phase() == "other"
        with memtrack.phase_scope("aggregate"):
            assert memtrack.active_phase() == "aggregate"
            with memtrack.phase_scope("refine"):
                assert memtrack.active_phase() == "refine"
            assert memtrack.active_phase() == "aggregate"
        assert memtrack.active_phase() == "other"


class TestRecordCsr:
    def test_charges_all_four_arrays(self):
        g = two_cliques_graph()
        led = MemoryLedger()
        handles = record_csr(led, g)
        assert len(handles) == 4
        expected = (g.offsets.nbytes + g.targets.nbytes
                    + g.weights.nbytes + g.degrees.nbytes)
        assert led.live_bytes("csr") == expected

    def test_disabled_ledger_is_free(self):
        assert record_csr(NULL_LEDGER, two_cliques_graph()) == []


class TestEndToEnd:
    def test_leiden_run_populates_ledger(self):
        g = random_graph(n=300, avg_degree=6, seed=5)
        led = MemoryLedger()
        record_csr(led, g)
        with Runtime(num_threads=1, seed=42, memory=led) as rt:
            leiden(g, LeidenConfig(seed=42), runtime=rt)
        snap = led.to_snapshot()
        validate_memory_doc(snap)
        comps = snap["logical"]["components"]
        assert "csr" in comps and "workspace" in comps
        # Aggregation builds coarser CSR graphs under the active ledger.
        assert snap["logical"]["phases"].get(
            "aggregate", {}).get("peak_bytes", 0) > 0

    def test_double_run_byte_identical(self):
        def run():
            g = random_graph(n=300, avg_degree=6, seed=5)
            led = MemoryLedger()
            record_csr(led, g)
            with Runtime(num_threads=1, seed=42, memory=led) as rt:
                leiden(g, LeidenConfig(seed=42), runtime=rt)
            return led.to_json(seed=42)

        assert run() == run()

    def test_disabled_runtime_records_nothing(self):
        g = random_graph(n=200, avg_degree=5, seed=3)
        with Runtime(num_threads=1, seed=42) as rt:
            assert rt.memory is NULL_LEDGER
            leiden(g, LeidenConfig(seed=42), runtime=rt)
        assert active_ledger() is NULL_LEDGER
