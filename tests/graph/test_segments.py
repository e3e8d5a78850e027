"""Tests for the ragged-gather helpers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.segments import gather_rows, ragged_indices, ragged_positions


class TestRaggedIndices:
    def test_basic(self):
        seg, idx = ragged_indices(np.array([0, 5]), np.array([2, 3]))
        assert seg.tolist() == [0, 0, 1, 1, 1]
        assert idx.tolist() == [0, 1, 5, 6, 7]

    def test_empty_rows_skipped(self):
        seg, idx = ragged_indices(np.array([0, 2, 2]), np.array([2, 0, 1]))
        assert seg.tolist() == [0, 0, 2]
        assert idx.tolist() == [0, 1, 2]

    def test_all_empty(self):
        seg, idx = ragged_indices(np.array([3, 3]), np.array([0, 0]))
        assert seg.shape == (0,)
        assert idx.shape == (0,)

    def test_no_rows(self):
        seg, idx = ragged_indices(np.array([]), np.array([]))
        assert seg.shape == (0,)

    def test_matches_python_loop(self):
        rng = np.random.default_rng(0)
        starts = rng.integers(0, 100, 20)
        lengths = rng.integers(0, 7, 20)
        seg, idx = ragged_indices(starts, lengths)
        expect_seg, expect_idx = [], []
        for k, (s, l) in enumerate(zip(starts, lengths)):
            for off in range(l):
                expect_seg.append(k)
                expect_idx.append(s + off)
        assert seg.tolist() == expect_seg
        assert idx.tolist() == expect_idx


class TestGatherRows:
    def test_gathers_edges(self, two_cliques):
        g = two_cliques
        rows = np.array([0, 5])
        seg, dst, wgt = gather_rows(
            g.offsets[:-1], g.degrees, g.targets, g.weights, rows
        )
        assert seg.shape[0] == g.degree(0) + g.degree(5)
        assert dst[seg == 0].tolist() == g.neighbors(0).tolist()
        assert dst[seg == 1].tolist() == g.neighbors(5).tolist()

    def test_empty_rows(self, two_cliques):
        g = two_cliques
        seg, dst, wgt = gather_rows(
            g.offsets[:-1], g.degrees, g.targets, g.weights,
            np.array([], dtype=np.int64),
        )
        assert seg.shape == (0,)


def _ragged_indices_oracle(starts, lengths):
    """The six-pass formula ``ragged_indices`` replaced: segment ids,
    then ``starts[seg] + arange - out_starts[seg]``."""
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    seg = np.repeat(np.arange(lengths.shape[0], dtype=np.int64), lengths)
    out_starts = np.zeros(lengths.shape[0], dtype=np.int64)
    np.cumsum(lengths[:-1], out=out_starts[1:])
    within = np.arange(total, dtype=np.int64) - out_starts[seg]
    return seg, starts[seg] + within


rows = st.lists(
    st.tuples(st.integers(0, 10**12), st.integers(0, 9)), max_size=60)


class TestRaggedOracle:
    """``ragged_indices`` and ``ragged_positions`` give the old formula's
    int64 outputs bit for bit."""

    @staticmethod
    def _check(starts, lengths):
        seg, idx = ragged_indices(starts, lengths)
        oseg, oidx = _ragged_indices_oracle(starts, lengths)
        for got, want in ((seg, oseg), (idx, oidx),
                          (ragged_positions(starts, lengths), oidx)):
            assert got.dtype == np.int64
            assert np.array_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(rows)
    def test_matches_oracle(self, pairs):
        starts = np.array([s for s, _ in pairs], dtype=np.int64)
        lengths = np.array([k for _, k in pairs], dtype=np.int64)
        self._check(starts, lengths)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 10**6), max_size=20))
    def test_all_zero_lengths(self, starts):
        self._check(np.array(starts, dtype=np.int64),
                    np.zeros(len(starts), dtype=np.int64))

    def test_int32_inputs_and_empty_rows(self):
        starts = np.array([5, 0, 9, 9, 2], dtype=np.int32)
        lengths = np.array([0, 3, 0, 2, 0], dtype=np.int32)
        self._check(starts, lengths)
