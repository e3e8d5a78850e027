"""Tests for COO edge transforms."""

import pytest

from repro.errors import GraphStructureError
from repro.graph.ops import coalesce_edges, remove_self_loops, symmetrize_edges


class TestSymmetrize:
    def test_adds_reverse_edges(self):
        src, dst, wgt = symmetrize_edges([0, 1], [1, 2], [1.0, 2.0])
        pairs = sorted(zip(src.tolist(), dst.tolist(), wgt.tolist()))
        assert pairs == [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 2.0), (2, 1, 2.0)]

    def test_self_loops_not_mirrored(self):
        src, dst, _ = symmetrize_edges([0], [0])
        assert len(src) == 1

    def test_empty(self):
        src, dst, wgt = symmetrize_edges([], [])
        assert len(src) == 0


class TestCoalesce:
    def test_sum(self):
        src, dst, wgt = coalesce_edges([0, 0, 1], [1, 1, 0], [1.0, 2.0, 5.0])
        assert sorted(zip(src.tolist(), dst.tolist(), wgt.tolist())) == [
            (0, 1, 3.0), (1, 0, 5.0)
        ]

    def test_max(self):
        _, _, wgt = coalesce_edges([0, 0], [1, 1], [1.0, 4.0], reduce="max")
        assert wgt.tolist() == [4.0]

    def test_first(self):
        _, _, wgt = coalesce_edges([0, 0], [1, 1], [1.0, 4.0], reduce="first")
        assert wgt.tolist() == [1.0]

    def test_unknown_reduce(self):
        with pytest.raises(GraphStructureError):
            coalesce_edges([0], [1], reduce="median")

    def test_empty(self):
        src, _, _ = coalesce_edges([], [])
        assert len(src) == 0


class TestRemoveSelfLoops:
    def test_removes_only_loops(self):
        src, dst, _ = remove_self_loops([0, 1, 2], [0, 2, 2])
        assert src.tolist() == [1]
        assert dst.tolist() == [2]
