"""Tests for the runtime facade."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.observability import memtrack
from repro.observability.tracer import Tracer
from repro.parallel.runtime import Runtime
from repro.parallel.schedule import Schedule


class TestConstruction:
    def test_defaults(self):
        rt = Runtime()
        assert rt.num_threads == 1
        assert rt.schedule.kind == "dynamic"

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

    def test_thread_rngs_spawned(self):
        rt = Runtime(4, seed=9)
        assert len(rt.thread_rngs) == 4
        assert len({r.state for r in rt.thread_rngs}) == 4

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
        sim1 = rt.simulate(num_threads=1)
        sim8 = rt.simulate()
        assert sim8.seconds < sim1.seconds
        assert set(sim8.phase_seconds) == {"p", "s"}

    def test_batch_order_covers_items(self):
        rt = Runtime(2, schedule=Schedule("dynamic", 4))
        batches = rt.batch_order(10)
        flat = np.concatenate(batches)
        assert flat.tolist() == list(range(10))


class TestPhase:
    """``Runtime.phase`` opens a phase's span, memory phase and wall time
    in one place."""

    def test_span_memory_phase_and_seconds(self):
        tracer = Tracer()
        rt = Runtime(tracer=tracer)
        seconds = {"refine": 0.0}
        with rt.phase("refine", seconds, "refine", enabled=True) as span:
            assert memtrack.active_phase() == "refine"
            assert tracer.span_path() == "refine"
            span.set(moves=3)
        assert memtrack.active_phase() == "other"
        (opened,) = tracer.root.children
        assert opened.attrs == {"enabled": True, "moves": 3}
        assert seconds["refine"] > 0.0

    def test_no_span_keeps_the_open_one(self):
        tracer = Tracer()
        rt = Runtime(tracer=tracer)
        seconds = {"other": 0.0}
        with tracer.span("pass", index=0):
            with rt.phase("other", seconds) as span:
                assert span is None
                assert tracer.span_path() == "pass[0]"
        assert len(tracer.root.children[0].children) == 0
        assert seconds["other"] > 0.0

    def test_raise_restores_and_still_counts(self):
        tracer = Tracer()
        rt = Runtime(tracer=tracer)
        seconds = {"aggregate": 0.0}
        with pytest.raises(RuntimeError):
            with rt.phase("aggregate", seconds, "aggregate"):
                raise RuntimeError("boom")
        assert memtrack.active_phase() == "other"
        assert tracer.current is tracer.root
        assert tracer.root.children[0].seconds > 0.0
        assert seconds["aggregate"] > 0.0
