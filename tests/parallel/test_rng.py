"""Tests for the xorshift32 generator."""

import numpy as np
import pytest

from repro.parallel.rng import Xorshift32


class TestScalar:
    def test_deterministic(self):
        a = Xorshift32(123)
        b = Xorshift32(123)
        assert [a.next_uint32() for _ in range(5)] == [
            b.next_uint32() for _ in range(5)
        ]

    def test_known_sequence(self):
        # xorshift32 with (13, 17, 5) from seed 1: first value is 270369.
        r = Xorshift32(1)
        assert r.next_uint32() == 270369

    def test_zero_seed_remapped(self):
        r = Xorshift32(0)
        assert r.state != 0
        assert r.next_uint32() != 0

    def test_range_32bit(self):
        r = Xorshift32(99)
        for _ in range(100):
            v = r.next_uint32()
            assert 0 < v < 2**32

    def test_next_float_in_unit_interval(self):
        r = Xorshift32(7)
        vals = [r.next_float() for _ in range(200)]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert 0.3 < sum(vals) / len(vals) < 0.7

    def test_next_below(self):
        r = Xorshift32(5)
        assert all(0 <= r.next_below(7) < 7 for _ in range(50))

    def test_next_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Xorshift32().next_below(0)


class TestBatches:
    def test_floats_advances_state_like_scalar(self):
        a = Xorshift32(42)
        b = Xorshift32(42)
        batch = a.floats(10)
        scalar = [b.next_float() for _ in range(10)]
        assert batch.tolist() == pytest.approx(scalar)

    def test_floats_empty(self):
        assert Xorshift32().floats(0).shape == (0,)

    def test_floats_negative_rejected(self):
        with pytest.raises(ValueError):
            Xorshift32().floats(-1)

    def test_floats_fast_distribution(self):
        vals = Xorshift32(11).floats_fast(10000)
        assert vals.shape == (10000,)
        assert np.all((vals >= 0) & (vals < 1))
        assert abs(vals.mean() - 0.5) < 0.02
        assert abs(vals.std() - (1 / 12) ** 0.5) < 0.02

    def test_floats_fast_deterministic(self):
        assert np.array_equal(
            Xorshift32(3).floats_fast(64), Xorshift32(3).floats_fast(64)
        )
