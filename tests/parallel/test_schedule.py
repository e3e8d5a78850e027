"""Tests for loop schedules and makespan simulation."""

import numpy as np
import pytest

from repro.parallel.schedule import Schedule, assign_chunks, chunk_spans, makespan


class TestSchedule:
    def test_defaults(self):
        s = Schedule()
        assert s.kind == "dynamic"
        assert s.chunk == 2048

    def test_rejects_unknown_kind(self):
        for kind in ("fair", "guided"):
            with pytest.raises(ValueError):
                Schedule(kind)

    def test_rejects_bad_chunk(self):
        with pytest.raises(ValueError):
            Schedule("static", 0)


class TestChunkSpans:
    def test_dynamic_fixed_chunks(self):
        spans = chunk_spans(10, Schedule("dynamic", 4), num_threads=2)
        assert spans == [(0, 4), (4, 8), (8, 10)]

    def test_static_near_equal(self):
        spans = chunk_spans(10, Schedule("static"), num_threads=3)
        assert len(spans) == 3
        assert spans[0][0] == 0 and spans[-1][1] == 10
        sizes = [hi - lo for lo, hi in spans]
        assert max(sizes) - min(sizes) <= 1

    def test_static_more_threads_than_items(self):
        spans = chunk_spans(2, Schedule("static"), num_threads=8)
        total = sum(hi - lo for lo, hi in spans)
        assert total == 2

    def test_empty_loop(self):
        assert chunk_spans(0, Schedule(), 4) == []

    def test_spans_cover_exactly(self):
        for kind in ("static", "dynamic"):
            spans = chunk_spans(77, Schedule(kind, 8), 5)
            covered = []
            for lo, hi in spans:
                covered.extend(range(lo, hi))
            assert covered == list(range(77))


class TestAssignChunks:
    def test_static_round_robin(self):
        owner, start = assign_chunks(np.ones(6), 3, Schedule("static"))
        assert owner.tolist() == [0, 1, 2, 0, 1, 2]
        assert start.tolist() == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]

    def test_dynamic_balances_uneven_costs(self):
        costs = np.array([10.0, 1.0, 1.0, 1.0, 1.0])
        owner, start = assign_chunks(costs, 2, Schedule("dynamic"))
        # all cheap chunks land on the thread not holding the big one
        big_owner = owner[0]
        assert all(o != big_owner for o in owner[1:])
        assert start.tolist() == [0.0, 0.0, 1.0, 2.0, 3.0]

    def test_empty(self):
        owner, start = assign_chunks(np.empty(0), 2, Schedule())
        assert owner.shape == start.shape == (0,)


class TestMakespan:
    def test_single_thread_is_total(self):
        costs = np.array([3.0, 4.0, 5.0])
        assert makespan(costs, 1, Schedule()) == pytest.approx(12.0)

    def test_perfect_split(self):
        costs = np.ones(8)
        assert makespan(costs, 4, Schedule("dynamic")) == pytest.approx(2.0)

    def test_dominant_chunk_bounds(self):
        costs = np.array([100.0] + [1.0] * 10)
        span = makespan(costs, 4, Schedule("dynamic"))
        assert span == pytest.approx(100.0)

    def test_more_threads_never_slower(self):
        rng = np.random.default_rng(1)
        costs = rng.uniform(1, 10, 64)
        spans = [makespan(costs, t, Schedule("dynamic")) for t in (1, 2, 4, 8)]
        assert all(a >= b - 1e-9 for a, b in zip(spans, spans[1:]))

    def test_overhead_added_per_chunk(self):
        costs = np.ones(4)
        base = makespan(costs, 1, Schedule("dynamic"))
        with_oh = makespan(costs, 1, Schedule("dynamic"), per_chunk_overhead=2.0)
        assert with_oh == pytest.approx(base + 8.0)

    def test_static_vs_dynamic_on_skew(self):
        # alternate expensive/cheap chunks: static round-robin piles the
        # expensive ones onto thread 0, dynamic balances better.
        costs = np.array([10.0, 1.0] * 8)
        st = makespan(costs, 2, Schedule("static"))
        dy = makespan(costs, 2, Schedule("dynamic"))
        assert dy <= st

    def test_empty(self):
        assert makespan(np.empty(0), 4, Schedule()) == 0.0


class TestEdgeCases:
    """Boundary behaviour: tiny ranges, oversized chunks, one thread."""

    @staticmethod
    def assert_exact_cover(spans, n_items):
        covered = []
        for lo, hi in spans:
            assert 0 <= lo < hi <= n_items  # non-empty, in range
            covered.extend(range(lo, hi))
        assert covered == list(range(n_items))  # cover, ordered, no overlap

    def test_empty_range_every_kind(self):
        for kind in ("static", "dynamic"):
            for threads in (1, 4):
                assert chunk_spans(0, Schedule(kind, 8), threads) == []

    def test_chunk_larger_than_range(self):
        spans = chunk_spans(5, Schedule("dynamic", 100), num_threads=4)
        assert spans == [(0, 5)]
        self.assert_exact_cover(
            chunk_spans(5, Schedule("static", 100), num_threads=4), 5)

    def test_dynamic_one_thread(self):
        spans = chunk_spans(10, Schedule("dynamic", 3), num_threads=1)
        self.assert_exact_cover(spans, 10)
        owner, _ = assign_chunks(np.ones(len(spans)), 1,
                                 Schedule("dynamic", 3))
        assert owner.tolist() == [0] * len(spans)
        assert makespan(np.ones(len(spans)), 1,
                        Schedule("dynamic", 3)) == pytest.approx(len(spans))

    def test_exact_cover_sweep(self):
        for kind in ("static", "dynamic"):
            for n in (1, 2, 7, 100):
                for chunk in (1, 3, 7, 101):
                    for threads in (1, 3, 8):
                        spans = chunk_spans(n, Schedule(kind, chunk), threads)
                        self.assert_exact_cover(spans, n)
