"""Tests for atomic-op emulation."""

import numpy as np

from repro.parallel.atomics import AtomicArray


class TestAtomicArray:
    def test_add(self):
        a = AtomicArray(np.zeros(3))
        assert a.add(1, 2.5) == 2.5
        assert a.add(1, 0.5) == 3.0
        assert a.load(1) == 3.0
        assert a.op_count == 2

    def test_add_many_accumulates_duplicates(self):
        a = AtomicArray(np.zeros(4))
        a.add_many(np.array([1, 1, 2]), np.array([1.0, 2.0, 5.0]))
        assert a.values.tolist() == [0.0, 3.0, 5.0, 0.0]
        assert a.op_count == 3

    def test_cas_success(self):
        a = AtomicArray(np.array([4.0]))
        old = a.compare_and_swap(0, 4.0, 0.0)
        assert old == 4.0
        assert a.load(0) == 0.0

    def test_cas_failure_leaves_value(self):
        a = AtomicArray(np.array([4.0]))
        old = a.compare_and_swap(0, 5.0, 0.0)
        assert old == 4.0
        assert a.load(0) == 4.0

    def test_len_getitem(self):
        a = AtomicArray(np.arange(3, dtype=np.float64))
        assert len(a) == 3
        assert a[2] == 2.0
