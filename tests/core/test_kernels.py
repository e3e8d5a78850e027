"""Tests for the segmented batch kernels."""

import numpy as np
import pytest

from repro.core._kernels import (
    compact_keys,
    scatter_add,
    segment_pair_sums,
    segment_pair_sums_packed,
    segment_pair_sums_sort,
    segmented_argmax,
    segmented_argmax_sorted,
)
from repro.core.workspace import KernelWorkspace


class TestSegmentPairSums:
    def test_basic(self):
        seg = np.array([0, 0, 0, 1])
        comm = np.array([2, 2, 3, 2])
        w = np.array([1.0, 2.0, 4.0, 8.0])
        ps, pc, psum = segment_pair_sums(seg, comm, w, 5)
        assert ps.tolist() == [0, 0, 1]
        assert pc.tolist() == [2, 3, 2]
        assert psum.tolist() == [3.0, 4.0, 8.0]

    def test_sorted_by_segment_then_community(self):
        rng = np.random.default_rng(0)
        seg = rng.integers(0, 8, 100)
        comm = rng.integers(0, 10, 100)
        w = rng.uniform(0, 1, 100)
        ps, pc, _ = segment_pair_sums(seg, comm, w, 10)
        keys = ps * 10 + pc
        assert np.all(np.diff(keys) > 0)  # strictly increasing = unique

    def test_matches_dict_oracle(self):
        rng = np.random.default_rng(7)
        seg = rng.integers(0, 20, 500)
        comm = rng.integers(0, 30, 500)
        w = rng.uniform(0, 2, 500)
        ps, pc, psum = segment_pair_sums(seg, comm, w, 30)
        oracle = {}
        for s, c, x in zip(seg.tolist(), comm.tolist(), w.tolist()):
            oracle[(s, c)] = oracle.get((s, c), 0.0) + x
        got = {(int(s), int(c)): float(v) for s, c, v in zip(ps, pc, psum)}
        assert got == pytest.approx(oracle)

    def test_empty(self):
        ps, pc, psum = segment_pair_sums(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            np.empty(0), 5,
        )
        assert ps.shape == (0,)
        assert pc.shape == (0,)
        assert psum.shape == (0,)

    def test_single_segment(self):
        """A batch where every edge belongs to one vertex."""
        seg = np.zeros(6, dtype=np.int64)
        comm = np.array([4, 1, 4, 1, 4, 0])
        w = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        ps, pc, psum = segment_pair_sums(seg, comm, w, 5)
        assert ps.tolist() == [0, 0, 0]
        assert pc.tolist() == [0, 1, 4]
        assert psum.tolist() == [6.0, 6.0, 9.0]

    def test_community_id_at_upper_boundary(self):
        """ids == num_communities - 1 must not collide across segments.

        The kernel packs (seg, comm) into seg * k + comm; the largest
        community id of segment s must stay distinct from community 0 of
        segment s + 1.
        """
        k = 7
        seg = np.array([0, 1, 1, 2])
        comm = np.array([k - 1, 0, k - 1, 0])
        w = np.array([1.0, 2.0, 4.0, 8.0])
        ps, pc, psum = segment_pair_sums(seg, comm, w, k)
        got = {(int(s), int(c)): float(v) for s, c, v in zip(ps, pc, psum)}
        assert got == {(0, k - 1): 1.0, (1, 0): 2.0, (1, k - 1): 4.0, (2, 0): 8.0}

    def test_single_pair_many_duplicates(self):
        seg = np.zeros(100, dtype=np.int64)
        comm = np.full(100, 3, dtype=np.int64)
        w = np.ones(100)
        ps, pc, psum = segment_pair_sums(seg, comm, w, 4)
        assert ps.tolist() == [0]
        assert pc.tolist() == [3]
        assert psum.tolist() == [100.0]


class TestSegmentedArgmax:
    def test_basic(self):
        seg = np.array([0, 0, 1, 1, 1])
        vals = np.array([1.0, 3.0, 2.0, 5.0, 4.0])
        segs, idx = segmented_argmax(seg, vals)
        assert segs.tolist() == [0, 1]
        assert idx.tolist() == [1, 3]

    def test_single_item_segments(self):
        seg = np.array([3, 7])
        vals = np.array([1.0, 2.0])
        segs, idx = segmented_argmax(seg, vals)
        assert segs.tolist() == [3, 7]
        assert idx.tolist() == [0, 1]

    def test_unsorted_segments(self):
        seg = np.array([1, 0, 1, 0])
        vals = np.array([5.0, 1.0, 3.0, 2.0])
        segs, idx = segmented_argmax(seg, vals)
        assert segs.tolist() == [0, 1]
        assert vals[idx].tolist() == [2.0, 5.0]

    def test_matches_oracle(self):
        rng = np.random.default_rng(3)
        seg = rng.integers(0, 15, 300)
        vals = rng.uniform(-1, 1, 300)
        segs, idx = segmented_argmax(seg, vals)
        for s, k in zip(segs.tolist(), idx.tolist()):
            mask = seg == s
            assert vals[k] == pytest.approx(vals[mask].max())

    def test_empty(self):
        segs, idx = segmented_argmax(np.empty(0, dtype=np.int64), np.empty(0))
        assert segs.shape == (0,)

    def test_negative_values_still_selected(self):
        seg = np.array([0, 0])
        vals = np.array([-5.0, -2.0])
        segs, idx = segmented_argmax(seg, vals)
        assert vals[idx].tolist() == [-2.0]

    def test_single_segment_whole_input(self):
        seg = np.zeros(5, dtype=np.int64)
        vals = np.array([0.5, 3.0, 2.0, 3.0, 1.0])
        segs, idx = segmented_argmax(seg, vals)
        assert segs.tolist() == [0]
        assert vals[int(idx[0])] == 3.0

    def test_tie_breaks_toward_last_among_equals(self):
        """All-equal values: the documented winner is the last entry."""
        seg = np.array([0, 0, 0])
        vals = np.array([1.0, 1.0, 1.0])
        segs, idx = segmented_argmax(seg, vals)
        assert segs.tolist() == [0]
        assert idx.tolist() == [2]

    def test_tie_break_is_stable_per_segment(self):
        """Ties resolve to the last-sorted equal entry in every segment."""
        seg = np.array([0, 0, 1, 1, 1])
        vals = np.array([7.0, 7.0, 2.0, 9.0, 9.0])
        segs, idx = segmented_argmax(seg, vals)
        assert segs.tolist() == [0, 1]
        assert idx.tolist() == [1, 4]

    def test_tie_break_independent_of_input_order(self):
        """Lexsort is stable, so equal values keep input order within a
        segment even when segments arrive interleaved."""
        seg = np.array([1, 0, 1, 0])
        vals = np.array([4.0, 6.0, 4.0, 6.0])
        segs, idx = segmented_argmax(seg, vals)
        assert segs.tolist() == [0, 1]
        # last among equals in *input* order: positions 3 (seg 0), 2 (seg 1)
        assert idx.tolist() == [3, 2]


class TestCompactKeys:
    def test_round_trip(self):
        keys = np.array([7, 3, 7, 0, 3, 9])
        compact, uniques = compact_keys(keys, domain=10)
        assert uniques.tolist() == [0, 3, 7, 9]
        assert np.array_equal(uniques[compact], keys)

    def test_preserves_ascending_order(self):
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 50, 400)
        compact, uniques = compact_keys(keys, domain=50)
        assert np.all(np.diff(uniques) > 0)
        assert np.array_equal(uniques[compact], keys)

    def test_empty(self):
        compact, uniques = compact_keys(np.empty(0, dtype=np.int64))
        assert compact.shape == (0,)
        assert uniques.shape == (0,)

    def test_scratch_map_reusable_without_clearing(self):
        scratch = np.empty(20, dtype=np.int64)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            keys = rng.integers(0, 20, 60)
            compact, uniques = compact_keys(keys, scratch)
            assert np.array_equal(uniques[compact], keys)


class TestScatterAdd:
    def test_matches_add_at(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            target = rng.uniform(0, 1, 30)
            expected = target.copy()
            idx = rng.integers(0, 30, 100)
            w = rng.uniform(-1, 1, 100)
            np.add.at(expected, idx, w)
            scatter_add(target, idx, w)
            assert np.allclose(target, expected)

    def test_untouched_slots_bitwise_unchanged(self):
        target = np.array([0.1, 0.2, 0.3, 0.4])
        before = target.copy()
        scatter_add(target, np.array([1]), np.array([5.0]))
        assert target[0] == before[0]
        assert target[2] == before[2]
        assert target[3] == before[3]
        assert target[1] == before[1] + 5.0

    def test_empty_noop(self):
        target = np.ones(4)
        scatter_add(target, np.empty(0, dtype=np.int64), np.empty(0))
        assert target.tolist() == [1.0, 1.0, 1.0, 1.0]


def _random_pair_case(rng, *, num_segments=None, num_communities=None,
                      size=None, self_heavy=False):
    n_seg = num_segments or int(rng.integers(1, 25))
    n_comm = num_communities or int(rng.integers(1, 40))
    sz = size if size is not None else int(rng.integers(0, 300))
    seg = np.sort(rng.integers(0, n_seg, sz))
    comm = rng.integers(0, n_comm, sz)
    if self_heavy and sz:
        # many repeats of one community: the self-loop-heavy shape
        comm[rng.random(sz) < 0.7] = int(rng.integers(0, n_comm))
    w = rng.uniform(-2, 2, sz).astype(np.float32)
    return seg, comm, w, n_seg, n_comm


def _assert_same_bits(a, b, msg=None):
    """Three kernel outputs equal in dtype and bytes."""
    for x, y in zip(a, b):
        assert x.dtype == y.dtype, msg
        assert x.tobytes() == y.tobytes(), msg


class TestCountSortEquivalence:
    """The production pair sums (:func:`segment_pair_sums_packed`, still
    dispatched under the ``count`` label) and the sorted argmax are
    *element-exact* equivalents of the sort kernels: same pairs, same
    order, bitwise-identical sums."""

    def test_fuzz_pair_sums(self):
        rng = np.random.default_rng(2024)
        for trial in range(60):
            seg, comm, w, n_seg, n_comm = _random_pair_case(rng)
            a = segment_pair_sums_sort(seg, comm, w, n_comm)
            b = segment_pair_sums_packed(seg, comm, w, n_seg, n_comm)
            _assert_same_bits(a, b, trial)

    def test_fuzz_pair_sums_fallback_path(self):
        """Bounds whose fields need more than 63 bits take the sort
        fallback; small arrays under large bounds reach it."""
        rng = np.random.default_rng(77)
        for trial in range(40):
            seg, comm, w, _, n_comm = _random_pair_case(rng)
            a = segment_pair_sums_sort(seg, comm, w, n_comm)
            # 41 + 23 bits of bounds alone exceed 63, whatever E is
            b = segment_pair_sums_packed(seg, comm, w, 1 << 41, 1 << 23)
            _assert_same_bits(a, b, trial)

    def test_single_community(self):
        seg = np.array([0, 0, 1, 2, 2])
        comm = np.zeros(5, dtype=np.int64)
        w = np.array([0.1, 0.2, 0.3, 0.4, 0.5], dtype=np.float32)
        a = segment_pair_sums_sort(seg, comm, w, 1)
        b = segment_pair_sums_packed(seg, comm, w, 3, 1)
        _assert_same_bits(a, b)

    def test_empty_batch(self):
        e = np.empty(0, dtype=np.int64)
        b = segment_pair_sums_packed(e, e, np.empty(0), 4, 9)
        assert all(arr.shape == (0,) for arr in b)

    def test_zero_weight_pairs_survive(self):
        """Weights summing to exactly 0 must not drop the pair."""
        seg = np.array([0, 0, 1])
        comm = np.array([3, 3, 5])
        w = np.array([1.5, -1.5, 0.0])
        a = segment_pair_sums_sort(seg, comm, w, 6)
        b = segment_pair_sums_packed(seg, comm, w, 2, 6)
        assert a[0].tolist() == b[0].tolist() == [0, 1]
        assert a[2].tolist() == b[2].tolist() == [0.0, 0.0]

    def test_unsorted_segments_supported_by_count(self):
        """Aggregation passes unsorted seg; output is still pair-sorted."""
        rng = np.random.default_rng(8)
        seg = rng.integers(0, 10, 200)  # NOT sorted
        comm = rng.integers(0, 12, 200)
        w = rng.uniform(0, 1, 200).astype(np.float32)
        b = segment_pair_sums_packed(seg, comm, w, 10, 12)
        keys = b[0] * 12 + b[1]
        assert np.all(np.diff(keys) > 0)
        _assert_same_bits(segment_pair_sums_sort(seg, comm, w, 12), b)
        oracle = {}
        for s, c, x in zip(seg.tolist(), comm.tolist(), w.tolist()):
            oracle[(s, c)] = oracle.get((s, c), 0.0) + x
        got = {(int(s), int(c)): float(v) for s, c, v in zip(*b)}
        assert got == pytest.approx(oracle)

    def test_fuzz_argmax_sorted(self):
        rng = np.random.default_rng(31)
        for trial in range(60):
            sz = int(rng.integers(0, 200))
            seg = np.sort(rng.integers(0, 20, sz))
            # duplicate values force the tie-break to matter
            vals = rng.integers(-3, 4, sz).astype(np.float64)
            a = segmented_argmax(seg, vals)
            b = segmented_argmax_sorted(seg, vals)
            assert np.array_equal(a[0], b[0]), trial
            assert np.array_equal(a[1], b[1]), trial

    def test_argmax_sorted_tie_break_last(self):
        seg = np.array([0, 0, 0, 2, 2])
        vals = np.array([1.0, 1.0, 1.0, 5.0, 5.0])
        segs, idx = segmented_argmax_sorted(seg, vals)
        assert segs.tolist() == [0, 2]
        assert idx.tolist() == [2, 4]

    def test_self_loop_heavy(self):
        rng = np.random.default_rng(99)
        for trial in range(20):
            seg, comm, w, n_seg, n_comm = _random_pair_case(
                rng, self_heavy=True
            )
            a = segment_pair_sums_sort(seg, comm, w, n_comm)
            b = segment_pair_sums_packed(seg, comm, w, n_seg, n_comm)
            _assert_same_bits(a, b, trial)


def _wide(rng, size, decades=16):
    """float32 weights with random signs spread over ``decades``."""
    mag = rng.uniform(1.0, 2.0, size) * 10.0 ** rng.uniform(
        -decades / 2, decades / 2, size)
    return (mag * rng.choice([-1.0, 1.0], size)).astype(np.float32)


def _grouped_batch(rng, num_segments, communities, *, lo=8, hi=40):
    """A move-scan-shaped batch: every segment holds a few groups of
    ``lo``–``hi`` edges to one community each, interleaved within the
    segment; ``seg`` is sorted, as ``gather_rows`` returns it."""
    segs, comms = [], []
    for s in range(num_segments):
        groups = rng.choice(communities, replace=False, size=int(
            rng.integers(1, min(3, len(communities)) + 1)))
        row = np.concatenate([
            np.full(int(rng.integers(lo, hi + 1)), c, dtype=np.int64)
            for c in groups])
        comms.append(rng.permutation(row))
        segs.append(np.full(row.shape[0], s, dtype=np.int64))
    seg = np.concatenate(segs)
    return seg, np.concatenate(comms), _wide(rng, seg.shape[0])


class TestProductionSumsEqualOracle:
    """Production pair sums equal the sort oracle bitwise on groups of
    8–40 edges whose float32 weights span 16 decades — sums that are
    not exact, so any other summation order or scheme shows in the
    bits.  Called through ``KernelWorkspace.pair_sums``, the kernel the
    move and refine scans dispatch."""

    @pytest.mark.parametrize("seed", range(200))
    def test_wide_exponent_groups(self, seed):
        rng = np.random.default_rng(seed)
        n = 64
        few = rng.choice(n, size=int(rng.integers(3, 9)), replace=False)
        seg, comm, w = _grouped_batch(rng, int(rng.integers(4, 65)), few)
        got = KernelWorkspace(n).pair_sums(seg, comm, w, int(seg[-1]) + 1)
        _assert_same_bits(segment_pair_sums_sort(seg, comm, w, n), got)


class TestChunkInvariance:
    """A chunk of a batch gets exactly the batch's sums for its own rows.

    This is what makes the process engine equal ``batch`` at any worker
    count: a worker's chunk is a contiguous range of batch positions,
    renumbered from 0.  Half the batches put many distinct communities
    in their second half, so the whole batch and its first half have
    very different shapes."""

    @staticmethod
    def _batch(rng, n):
        first, second = int(rng.integers(8, 33)), int(rng.integers(8, 33))
        few = rng.choice(n, size=int(rng.integers(2, 6)), replace=False)
        seg_a, comm_a, w_a = _grouped_batch(rng, first, few)
        if rng.random() < 0.5:
            # second half: every edge its own community
            sizes = rng.integers(20, 60, second)
            seg_b = np.repeat(np.arange(second, dtype=np.int64), sizes)
            comm_b = rng.choice(n, size=seg_b.shape[0], replace=False)
            w_b = _wide(rng, seg_b.shape[0])
        else:
            seg_b, comm_b, w_b = _grouped_batch(rng, second, few)
        return (np.concatenate([seg_a, seg_b + first]),
                np.concatenate([comm_a, comm_b]),
                np.concatenate([w_a, w_b]), first + second)

    @pytest.mark.parametrize("seed", range(300))
    def test_chunks_equal_batch_rows(self, seed):
        rng = np.random.default_rng(seed)
        n = 1 << 14
        seg, comm, w, rows = self._batch(rng, n)
        ws = KernelWorkspace(n)
        pseg, pcomm, psum = ws.pair_sums(seg, comm, w, rows)
        cuts = np.unique(np.concatenate([
            [0, rows], rng.integers(1, rows, int(rng.integers(1, 5)))]))
        if seed % 3 == 0:
            cuts = np.array([0, rows // 2, rows])  # the halves
        for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
            mask = (seg >= lo) & (seg < hi)
            cseg, ccomm, csum = ws.pair_sums(
                seg[mask] - lo, comm[mask], w[mask], hi - lo)
            rows_of = (pseg >= lo) & (pseg < hi)
            assert np.array_equal(cseg + lo, pseg[rows_of]), (lo, hi)
            assert np.array_equal(ccomm, pcomm[rows_of]), (lo, hi)
            assert csum.tobytes() == psum[rows_of].tobytes(), (lo, hi)
