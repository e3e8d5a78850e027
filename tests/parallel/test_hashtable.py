"""Tests for the collision-free hashtable against a dict oracle."""

import numpy as np
import pytest

from repro.parallel.hashtable import CollisionFreeHashtable


class TestBasics:
    def test_accumulate_and_get(self):
        h = CollisionFreeHashtable(10)
        h.accumulate(3, 1.5)
        h.accumulate(3, 2.5)
        assert h.get(3) == pytest.approx(4.0)
        assert len(h) == 1

    def test_get_default(self):
        h = CollisionFreeHashtable(4)
        assert h.get(2) == 0.0
        assert h.get(2, default=-1.0) == -1.0

    def test_contains(self):
        h = CollisionFreeHashtable(4)
        h.accumulate(1, 1.0)
        assert 1 in h
        assert 2 not in h
        assert 99 not in h

    def test_keys_in_first_touch_order(self):
        h = CollisionFreeHashtable(10)
        for k in (7, 2, 9, 2):
            h.accumulate(k, 1.0)
        assert h.keys().tolist() == [7, 2, 9]

    def test_items_and_values(self):
        h = CollisionFreeHashtable(5)
        h.accumulate(4, 2.0)
        h.accumulate(0, 3.0)
        assert dict(h.items()) == {4: 2.0, 0: 3.0}
        assert h.values().tolist() == [2.0, 3.0]

    def test_clear_only_touches_used(self):
        h = CollisionFreeHashtable(8)
        h.accumulate(2, 5.0)
        h.clear()
        assert len(h) == 0
        assert h.get(2) == 0.0
        h.accumulate(2, 1.0)
        assert h.get(2) == 1.0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            CollisionFreeHashtable(-1)

    def test_zero_capacity(self):
        h = CollisionFreeHashtable(0)
        assert len(h) == 0


class TestVectorized:
    def test_accumulate_many_matches_scalar(self):
        h1 = CollisionFreeHashtable(100)
        h2 = CollisionFreeHashtable(100)
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 100, 500)
        wgts = rng.uniform(0, 1, 500)
        h1.accumulate_many(keys, wgts)
        for k, w in zip(keys.tolist(), wgts.tolist()):
            h2.accumulate(k, w)
        assert h1.to_dict() == pytest.approx(h2.to_dict())

    def test_accumulate_many_after_scalar(self):
        h = CollisionFreeHashtable(10)
        h.accumulate(1, 1.0)
        h.accumulate_many(np.array([1, 2]), np.array([2.0, 3.0]))
        assert h.to_dict() == {1: 3.0, 2: 3.0}


class TestDictOracle:
    def test_random_workload(self):
        rng = np.random.default_rng(42)
        h = CollisionFreeHashtable(50)
        oracle = {}
        for _ in range(20):
            for _ in range(200):
                k = int(rng.integers(0, 50))
                w = float(rng.uniform(-1, 1))
                h.accumulate(k, w)
                oracle[k] = oracle.get(k, 0.0) + w
            assert h.to_dict() == pytest.approx(oracle)
            h.clear()
            oracle.clear()
