"""Property-based tests for the parallel substrates."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builder import build_csr_from_edges
from repro.parallel.coloring import color_graph, verify_coloring
from repro.parallel.hashtable import CollisionFreeHashtable
from repro.parallel.rng import Xorshift32
from repro.parallel.scan import blocked_exclusive_scan, exclusive_scan
from repro.parallel.schedule import Schedule, chunk_spans, makespan
from tests.parallel.test_coloring import _color_graph_reference


class TestHashtableVsDict:
    @given(st.lists(st.tuples(st.integers(0, 19),
                              st.floats(-10, 10, allow_nan=False)),
                    max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_matches_dict(self, ops):
        h = CollisionFreeHashtable(20)
        oracle = {}
        for key, w in ops:
            h.accumulate(key, w)
            oracle[key] = oracle.get(key, 0.0) + w
        got = h.to_dict()
        assert set(got) == set(oracle)
        for k in oracle:
            assert abs(got[k] - oracle[k]) < 1e-9

    @given(st.lists(st.integers(0, 9), max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_clear_restores_empty(self, keys):
        h = CollisionFreeHashtable(10)
        for k in keys:
            h.accumulate(k, 1.0)
        h.clear()
        assert len(h) == 0
        assert all(h.get(k) == 0.0 for k in range(10))


class TestScanProperties:
    @given(st.lists(st.integers(0, 1000), max_size=300),
           st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_blocked_equals_sequential(self, values, blocks):
        vals = np.array(values, dtype=np.int64)
        assert np.array_equal(
            blocked_exclusive_scan(vals, blocks), exclusive_scan(vals)
        )

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_exclusive_scan_invariants(self, values):
        vals = np.array(values, dtype=np.int64)
        out = exclusive_scan(vals)
        assert out[0] == 0
        assert np.all(np.diff(out) == vals[:-1])


class TestScheduleProperties:
    @given(st.integers(0, 500), st.integers(1, 32),
           st.sampled_from(["static", "dynamic"]),
           st.integers(1, 64))
    @settings(max_examples=80, deadline=None)
    def test_spans_partition_range(self, n, threads, kind, chunk):
        spans = chunk_spans(n, Schedule(kind, chunk), threads)
        covered = [i for lo, hi in spans for i in range(lo, hi)]
        assert covered == list(range(n))

    @given(st.lists(st.floats(0.1, 10, allow_nan=False),
                    min_size=1, max_size=60),
           st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_makespan_bounds(self, costs, threads):
        arr = np.array(costs)
        span = makespan(arr, threads, Schedule("dynamic"))
        total = float(arr.sum())
        # never better than perfect split, never worse than serial
        assert span >= total / threads - 1e-9
        assert span <= total + 1e-9
        # at least the largest single chunk
        assert span >= float(arr.max()) - 1e-9


class TestColoringProperties:
    @given(st.integers(1, 40),
           st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)),
                    max_size=200),
           st.booleans(),
           st.integers(0, 2**16),
           st.sampled_from([0, 1, 2, 3, 256]))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_and_is_proper(self, n, edges, coalesce,
                                             seed, max_rounds):
        edges = [(u % n, v % n) for u, v in edges]
        src = [u for u, _ in edges]
        dst = [v for _, v in edges]
        g = build_csr_from_edges(src, dst, num_vertices=n,
                                 coalesce="sum" if coalesce else None)
        colors = color_graph(g, seed=seed, max_rounds=max_rounds)
        assert np.array_equal(
            colors, _color_graph_reference(g, seed=seed, max_rounds=max_rounds)
        )
        assert verify_coloring(g, colors)


class TestRngProperties:
    @given(st.integers(1, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_state_stays_nonzero(self, seed):
        r = Xorshift32(seed)
        for _ in range(50):
            assert r.next_uint32() != 0

    @given(st.integers(0, 2**32 - 1), st.integers(1, 200))
    @settings(max_examples=40, deadline=None)
    def test_batch_scalar_equivalence(self, seed, count):
        a, b = Xorshift32(seed), Xorshift32(seed)
        assert a.floats(count).tolist() == [
            b.next_float() for _ in range(count)
        ]
