"""Tests for prefix sums (sequential and blocked-parallel forms)."""

import numpy as np
import pytest

from repro.parallel.scan import (
    blocked_exclusive_scan,
    csr_offsets_from_counts,
    exclusive_scan,
    inclusive_scan,
)
from repro.parallel.simthread import WorkLedger


class TestSequential:
    def test_exclusive_basic(self):
        out = exclusive_scan(np.array([3, 1, 4, 1]))
        assert out.tolist() == [0, 3, 4, 8]

    def test_exclusive_empty(self):
        assert exclusive_scan(np.array([], dtype=np.int64)).shape == (0,)

    def test_exclusive_single(self):
        assert exclusive_scan(np.array([5])).tolist() == [0]

    def test_inclusive_basic(self):
        assert inclusive_scan(np.array([3, 1, 4])).tolist() == [3, 4, 8]

    def test_csr_offsets(self):
        offs = csr_offsets_from_counts(np.array([2, 0, 3]))
        assert offs.tolist() == [0, 2, 2, 5]

    def test_out_param(self):
        vals = np.array([1, 2, 3])
        out = np.empty(3, dtype=vals.dtype)
        res = exclusive_scan(vals, out=out)
        assert res is out
        assert out.tolist() == [0, 1, 3]


class TestBlocked:
    @pytest.mark.parametrize("blocks", [1, 2, 3, 7, 100])
    def test_matches_sequential(self, blocks):
        rng = np.random.default_rng(blocks)
        vals = rng.integers(0, 50, 137)
        expect = exclusive_scan(vals)
        got = blocked_exclusive_scan(vals, blocks)
        assert got.tolist() == expect.tolist()

    def test_empty(self):
        out = blocked_exclusive_scan(np.array([], dtype=np.int64), 4)
        assert out.shape == (0,)

    def test_records_ledger(self):
        ledger = WorkLedger()
        blocked_exclusive_scan(np.arange(100), 4, ledger=ledger)
        assert ledger.total_work > 0
        kinds = {r.kind for r in ledger.regions}
        assert kinds == {"parallel", "serial"}

    def test_float_values(self):
        vals = np.array([0.5, 1.5, 2.0])
        assert blocked_exclusive_scan(vals, 2).tolist() == [0.0, 0.5, 2.0]
