"""Tests for the work ledger and modelled-time simulation."""

import numpy as np
import pytest

from repro.parallel.costmodel import PAPER_MACHINE, MachineModel
from repro.parallel.schedule import Schedule
from repro.parallel.simthread import _MAX_CHUNKS, WorkLedger


def flat_machine():
    """A machine with no contention/NUMA/overheads for exact arithmetic."""
    return MachineModel(
        contention_beta=0.0, numa_factor=1.0, smt_pressure=1.0,
        smt_gain=1.0, time_per_unit=1.0, chunk_overhead_units=0.0,
        atomic_seconds=0.0, barrier_base_seconds=0.0,
    )


class TestRecording:
    def test_parallel_region_chunks(self):
        led = WorkLedger()
        led.parallel(np.ones(5000), phase="p", schedule=Schedule("dynamic", 2048))
        region = led.regions[0]
        assert region.kind == "parallel"
        assert region.chunk_costs.shape[0] == 3
        assert region.total_work == pytest.approx(5000)

    def test_chunk_cap(self):
        led = WorkLedger()
        led.parallel(np.ones(200000), phase="p", schedule=Schedule("dynamic", 1))
        assert led.regions[0].chunk_costs.shape[0] <= 16384
        assert led.regions[0].total_work == pytest.approx(200000)

    def test_empty_region_skipped(self):
        led = WorkLedger()
        led.parallel(np.empty(0), phase="p")
        led.serial(0.0, phase="p")
        assert led.regions == []

    def test_serial(self):
        led = WorkLedger()
        led.serial(100.0, phase="s")
        assert led.regions[0].kind == "serial"
        assert led.total_work == pytest.approx(100.0)

    def test_atomics_counted_in_work(self):
        led = WorkLedger()
        led.parallel(np.ones(10), phase="p", atomics=7.0)
        assert led.total_work == pytest.approx(17.0)

    def test_merge_and_phases(self):
        a, b = WorkLedger(), WorkLedger()
        a.serial(1.0, phase="x")
        b.serial(2.0, phase="y")
        a.merge(b)
        assert a.phases() == ["x", "y"]
        assert a.work_by_phase() == {"x": 1.0, "y": 2.0}

    def test_clear(self):
        led = WorkLedger()
        led.serial(1.0, phase="x")
        led.clear()
        assert led.total_work == 0.0


class TestSimulate:
    def test_serial_unaffected_by_threads(self):
        led = WorkLedger()
        led.serial(100.0, phase="s")
        m = flat_machine()
        assert led.simulate(m, 1).seconds == pytest.approx(100.0)
        assert led.simulate(m, 64).seconds == pytest.approx(100.0)

    def test_parallel_ideal_speedup_on_flat_machine(self):
        led = WorkLedger()
        led.parallel(np.ones(64 * 2048), phase="p")
        m = flat_machine()
        t1 = led.simulate(m, 1).seconds
        t64 = led.simulate(m, 64).seconds
        assert t1 / t64 == pytest.approx(64.0, rel=0.01)

    def test_monotone_in_threads(self):
        led = WorkLedger()
        led.parallel(np.random.default_rng(0).uniform(1, 4, 50000), phase="p")
        led.serial(1000, phase="s")
        times = [led.simulate(PAPER_MACHINE, t).seconds for t in (1, 2, 4, 8, 16, 32)]
        assert all(a >= b for a, b in zip(times, times[1:]))

    def test_phase_seconds_sum_to_total(self):
        led = WorkLedger()
        led.parallel(np.ones(1000), phase="a")
        led.serial(50, phase="b")
        sim = led.simulate(PAPER_MACHINE, 8)
        assert sum(sim.phase_seconds.values()) == pytest.approx(sim.seconds)

    def test_work_scale_scales_serial(self):
        led = WorkLedger()
        led.serial(10.0, phase="s")
        m = flat_machine()
        assert led.simulate(m, 1, work_scale=100.0).seconds == pytest.approx(1000.0)

    def test_work_scale_parallel_approaches_linear(self):
        # At scale, chunk-granularity ceases to limit parallelism.
        led = WorkLedger()
        led.parallel(np.ones(4096), phase="p")  # only 2 chunks
        m = flat_machine()
        unscaled = led.simulate(m, 64).seconds
        scaled = led.simulate(m, 64, work_scale=1000.0).seconds
        # unscaled: 2 chunks cap speedup at 2; scaled: near 64.
        assert unscaled == pytest.approx(2048.0)
        assert scaled == pytest.approx(4096.0 * 1000 / 64, rel=0.05)


def _chunk_costs(item_costs, chunk, **kwargs):
    led = WorkLedger()
    led.parallel(item_costs, phase="p", schedule=Schedule("dynamic", chunk),
                 **kwargs)
    return led.regions[0].chunk_costs if led.regions else None


class TestExactRegions:
    """Integer item costs, a constant per-item cost and a uniform region
    given as a count give the chunk costs, bit for bit, that the float64
    item array gives: every such cost is an integer or a multiple of
    2⁻⁴, so the chunk sums are exact in any order."""

    CHUNK = 8
    #: 0, 1, chunk - 1, chunk, chunk + 1, a few chunks, and a length past
    #: the chunk cap, where chunks are re-aggregated.
    LENGTHS = (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 5 * CHUNK + 3,
               _MAX_CHUNKS * CHUNK + 1001)

    @staticmethod
    def _assert_same(got, ref):
        if ref is None:
            assert got is None
            return
        assert got.dtype == ref.dtype == np.float64
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("per_item", [0.0, 1.0, 4.0, 0.0625])
    @pytest.mark.parametrize("length", LENGTHS)
    def test_integer_items(self, length, per_item):
        degrees = np.random.default_rng(length).integers(
            0, 5000, length).astype(np.int64)
        self._assert_same(
            _chunk_costs(degrees, self.CHUNK, per_item=per_item),
            _chunk_costs(degrees.astype(np.float64) + per_item, self.CHUNK))

    @pytest.mark.parametrize("length", LENGTHS)
    def test_int32_items(self, length):
        degrees = np.random.default_rng(length).integers(
            0, 2**31 - 1, length).astype(np.int32)
        self._assert_same(
            _chunk_costs(degrees, self.CHUNK, per_item=4.0),
            _chunk_costs(degrees.astype(np.float64) + 4.0, self.CHUNK))

    @pytest.mark.parametrize("per_item", [1.0, 4.0, 0.0625])
    @pytest.mark.parametrize("length", LENGTHS)
    def test_uniform_region(self, length, per_item):
        self._assert_same(
            _chunk_costs(length, self.CHUNK, per_item=per_item),
            _chunk_costs(np.full(length, per_item), self.CHUNK))

    @pytest.mark.parametrize("chunk", [1, 2048])
    def test_default_chunks(self, chunk):
        for length in (0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 7):
            degrees = np.arange(length, dtype=np.int64) % 97
            self._assert_same(_chunk_costs(length, chunk, per_item=1.0),
                              _chunk_costs(np.ones(length), chunk))
            self._assert_same(
                _chunk_costs(degrees, chunk, per_item=4.0),
                _chunk_costs(degrees.astype(np.float64) + 4.0, chunk))

    def test_float_items_with_per_item(self):
        costs = np.random.default_rng(1).integers(0, 48, 1000) / 16.0
        self._assert_same(_chunk_costs(costs, 16, per_item=0.5),
                          _chunk_costs(costs + 0.5, 16))

    def test_inexact_float_items(self):
        costs = np.random.default_rng(2).uniform(0, 3, 1000)
        got = _chunk_costs(costs, 16)
        assert got.shape == (63,)
        assert got == pytest.approx(
            np.append(costs, np.zeros(8)).reshape(63, 16).sum(axis=1))

    def test_numpy_integer_count(self):
        self._assert_same(_chunk_costs(np.int64(20), 8, per_item=1.0),
                          _chunk_costs(np.ones(20), 8))

    @pytest.mark.parametrize("count", [5, np.int64(5), 0])
    def test_count_needs_per_item(self, count):
        """A count without a per-item cost would record no work: an int
        is a count of items, not one item's cost."""
        with pytest.raises(ValueError, match="per_item"):
            _chunk_costs(count, 8)

    def test_runtime_passes_per_item_through(self):
        from repro.parallel.runtime import Runtime

        rt = Runtime(2)
        rt.record_parallel(5000, phase="p", per_item=1.0, atomics=3.0)
        rt.record_parallel(np.arange(5000), phase="q", per_item=4.0)
        assert rt.ledger.work_by_phase() == {
            "p": 5003.0, "q": float(np.arange(5000).sum() + 4 * 5000)}
        with pytest.raises(ValueError, match="per_item"):
            rt.record_parallel(5000, phase="r")


class TestRegionSpanBound:
    def test_analytic_bound_close_to_exact(self):
        """The Graham-bound fast path used at scale must agree with the
        exact greedy makespan within its (1 - 1/T) * max_chunk slack."""
        from repro.parallel.schedule import Schedule, makespan
        from repro.parallel.simthread import WorkLedger

        rng = np.random.default_rng(5)
        costs = rng.uniform(1, 50, 400)
        led = WorkLedger()
        led.parallel(costs, phase="p", schedule=Schedule("dynamic", 8))
        region = led.regions[0]
        chunk_costs = region.chunk_costs
        for threads in (2, 4, 8, 16):
            exact = makespan(chunk_costs, threads, region.schedule)
            analytic = (
                float(chunk_costs.sum()) / threads
                + (1 - 1 / threads) * float(chunk_costs.max())
            )
            assert exact <= analytic + 1e-9
            assert analytic <= exact + float(chunk_costs.max())

    def test_scaled_simulation_monotone_in_scale(self):
        led = WorkLedger()
        led.parallel(np.ones(5000), phase="p")
        m = flat_machine()
        t_small = led.simulate(m, 8, work_scale=10.0).seconds
        t_big = led.simulate(m, 8, work_scale=100.0).seconds
        # Work scales 10x; the constant imbalance term (max chunk) does
        # not, so the ratio sits just below 10.
        assert t_small * 7 < t_big < t_small * 10
