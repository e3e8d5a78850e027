"""Tests for the runtime facade."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.observability.recorder import Recorder
from repro.observability.tracer import trace_tree
from repro.parallel.costmodel import PAPER_MACHINE
from repro.parallel.runtime import Runtime


class TestConstruction:
    def test_defaults(self):
        rt = Runtime()
        assert rt.num_threads == 1
        assert rt.executor == "serial"
        rt.record_parallel(np.ones(5000), phase="p")
        (region,) = rt.ledger.regions
        assert (region.schedule.kind, region.schedule.chunk) == (
            "dynamic", 2048)

    def test_rejects_bad_threads(self):
        with pytest.raises(ConfigError):
            Runtime(0)

    def test_rejects_bad_executor(self):
        with pytest.raises(ConfigError):
            Runtime(executor="gpu")
        with pytest.raises(ConfigError):
            Runtime(executor="threads")

    def test_process_executor_still_accepted(self):
        """Callers pass ``executor="process"`` beside the process engine;
        the value selects nothing, and no pool starts until
        :meth:`Runtime.procpool`."""
        with Runtime(2, executor="process") as rt:
            assert rt.executor == "process"
            assert rt._procpool is None

    def test_hashtables_per_thread(self):
        rt = Runtime(3)
        tables = rt.hashtables(10)
        assert len(tables) == 3
        assert all(t.capacity == 10 for t in tables)


class TestAccounting:
    def test_record_and_simulate(self):
        rt = Runtime(8)
        rt.record_parallel(np.ones(10000), phase="p")
        rt.record_serial(100, phase="s")
        sim1 = rt.ledger.simulate(PAPER_MACHINE, 1)
        sim8 = rt.ledger.simulate(PAPER_MACHINE, 8)
        assert sim8.seconds < sim1.seconds
        assert set(sim8.phase_seconds) == {"p", "s"}


class TestPhase:
    """``Runtime.phase`` opens a phase's span, allocation phase and wall
    time in one place."""

    def test_span_memory_phase_and_seconds(self):
        rec = Recorder()
        rt = Runtime(recorder=rec)
        seconds = {"refine": 0.0}
        with rt.phase("refine", seconds, "refine", enabled=True):
            assert rec.current_phase == "refine"
            rec.set(moves=3)
        assert rec.current_phase == "other"
        (opened,) = trace_tree(rec).children
        assert opened.name == "refine"
        assert opened.attrs == {"enabled": True, "moves": 3}
        assert seconds["refine"] > 0.0

    def test_no_span_keeps_the_open_one(self):
        rec = Recorder()
        rt = Runtime(recorder=rec)
        seconds = {"other": 0.0}
        with rec.span("pass", index=0):
            with rt.phase("other", seconds):
                rec.count("inside")
        (pass_span,) = trace_tree(rec).children
        assert pass_span.children == []
        assert pass_span.counters == {"inside": 1.0}
        assert seconds["other"] > 0.0

    def test_raise_restores_and_still_counts(self):
        rec = Recorder()
        rt = Runtime(recorder=rec)
        seconds = {"aggregate": 0.0}
        with pytest.raises(RuntimeError):
            with rt.phase("aggregate", seconds, "aggregate"):
                raise RuntimeError("boom")
        assert rec.current_phase == "other"
        assert rec.events[-1][0] == "close"
        assert trace_tree(rec).children[0].seconds > 0.0
        assert seconds["aggregate"] > 0.0
