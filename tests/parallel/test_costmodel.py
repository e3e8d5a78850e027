"""Tests for the machine and implementation cost models."""

import pytest

from repro.parallel.costmodel import (
    GPU_MACHINE,
    IMPLEMENTATION_PROFILES,
    PAPER_MACHINE,
)


class TestMachineModel:
    def test_paper_machine_topology(self):
        m = PAPER_MACHINE
        assert m.physical_cores == 32
        assert m.max_threads == 64

    def test_capacity_monotone(self):
        caps = [PAPER_MACHINE.capacity(t) for t in (1, 2, 4, 8, 16, 32, 64)]
        assert all(a < b for a, b in zip(caps, caps[1:]))

    def test_capacity_smt_discount(self):
        m = PAPER_MACHINE
        assert m.capacity(32) == 32
        assert m.capacity(64) < 64
        assert m.capacity(64) == pytest.approx(32 + m.smt_gain * 32)

    def test_contention_grows_then_saturates(self):
        m = PAPER_MACHINE
        assert m.contention(1) == 1.0
        assert m.contention(16) < m.contention(32)
        assert m.contention(32) == m.contention(64)  # cores saturated

    def test_numa_kicks_in_past_one_socket(self):
        m = PAPER_MACHINE
        assert m.numa(16) == 1.0
        assert m.numa(32) > 1.0
        assert m.numa(64) > m.numa(32)

    def test_region_speedup_shape(self):
        """The ideal speedup of a balanced parallel region,
        ``T / parallel_slowdown(T)``."""
        m = PAPER_MACHINE
        s = {t: t / m.parallel_slowdown(t) for t in (1, 2, 32, 64)}
        assert s[1] == pytest.approx(1.0)
        assert 1.8 < s[2] <= 2.0
        assert s[32] < 32
        assert s[32] < s[64] < 64

    def test_barrier_zero_single_thread(self):
        assert PAPER_MACHINE.barrier_seconds(1) == 0.0
        assert PAPER_MACHINE.barrier_seconds(64) > 0

    def test_scaled_machine(self):
        m = PAPER_MACHINE.scaled(1000.0)
        assert m.time_per_unit == pytest.approx(
            PAPER_MACHINE.time_per_unit * 1000
        )
        assert m.barrier_base_seconds == PAPER_MACHINE.barrier_base_seconds

    def test_gpu_machine_flat(self):
        assert GPU_MACHINE.numa(100) == 1.0
        assert GPU_MACHINE.capacity(108) == 108


class TestProfiles:
    def test_all_expected_present(self):
        assert set(IMPLEMENTATION_PROFILES) == {
            "gve", "original", "igraph", "networkit", "cugraph"
        }

    def test_sequential_flags(self):
        assert not IMPLEMENTATION_PROFILES["original"].parallel
        assert not IMPLEMENTATION_PROFILES["igraph"].parallel
        assert IMPLEMENTATION_PROFILES["gve"].parallel

    def test_gve_is_reference_cost(self):
        assert IMPLEMENTATION_PROFILES["gve"].unit_cost == 1.0

    def test_unit_cost_ordering(self):
        # original is the least efficient per unit; igraph leaner.
        p = IMPLEMENTATION_PROFILES
        assert p["original"].unit_cost > p["igraph"].unit_cost > 1.0

    def test_machine_for_scales_unit_cost(self):
        prof = IMPLEMENTATION_PROFILES["igraph"]
        m = prof.machine_for(PAPER_MACHINE)
        assert m.time_per_unit == pytest.approx(
            PAPER_MACHINE.time_per_unit * prof.unit_cost
        )

    def test_effective_threads(self):
        assert IMPLEMENTATION_PROFILES["original"].effective_threads(64) == 1
        assert IMPLEMENTATION_PROFILES["gve"].effective_threads(64) == 64
