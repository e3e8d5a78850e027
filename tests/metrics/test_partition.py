"""Tests for partition utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphStructureError
from repro.metrics.partition import (
    DENSE_RENUMBER_SPAN,
    check_membership,
    community_sizes,
    count_communities,
    groups_from_membership,
    membership_from_groups,
    renumber_membership,
)


class TestCheckMembership:
    def test_accepts_valid(self):
        C = check_membership([0, 1, 0], 3)
        assert C.dtype == np.int32

    def test_rejects_length(self):
        with pytest.raises(GraphStructureError):
            check_membership([0, 1], 3)

    def test_rejects_negative(self):
        with pytest.raises(GraphStructureError):
            check_membership([0, -1], 2)


class TestCounts:
    def test_count_communities(self):
        assert count_communities([5, 5, 9, 5]) == 2
        assert count_communities([]) == 0

    def test_community_sizes_dense(self):
        sizes = community_sizes([0, 0, 1, 2, 2, 2])
        assert sizes.tolist() == [2, 1, 3]

    def test_community_sizes_sparse_ids(self):
        sizes = community_sizes([4, 4, 9])
        assert sizes.tolist() == [2, 1]

    def test_community_sizes_empty(self):
        assert community_sizes([]).shape == (0,)


class TestRenumber:
    def test_compacts(self):
        ren, old = renumber_membership([9, 3, 9, 7])
        assert old.tolist() == [3, 7, 9]
        assert ren.tolist() == [2, 0, 2, 1]

    def test_identity_when_dense(self):
        ren, old = renumber_membership([0, 1, 2])
        assert ren.tolist() == [0, 1, 2]

    def test_roundtrip(self):
        C = np.array([5, 2, 5, 8, 2], dtype=np.int32)
        ren, old = renumber_membership(C)
        assert np.array_equal(old[ren], C)

    def test_deterministic(self):
        a, _ = renumber_membership([3, 1, 3])
        b, _ = renumber_membership([3, 1, 3])
        assert np.array_equal(a, b)


def _unique_oracle(C):
    old, ren = np.unique(np.asarray(C, dtype=np.int32), return_inverse=True)
    return ren.astype(np.int32), old.astype(np.int32)


def _assert_matches_oracle(C):
    got, want = renumber_membership(C), _unique_oracle(C)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.int32
        assert g.shape == w.shape
        assert np.array_equal(g, w)


@st.composite
def memberships(draw):
    """Id arrays on both sides of the dense/``np.unique`` choice."""
    n = draw(st.integers(0, 300))
    span = DENSE_RENUMBER_SPAN * max(n, 1)
    kind = draw(st.sampled_from(
        ["dense", "under-bound", "at-bound", "far", "negative"]))
    if kind == "dense":
        ids = st.integers(0, max(n - 1, 0))
    elif kind == "under-bound":
        ids = st.integers(max(span - 8, 0), span - 1)
    elif kind == "at-bound":
        ids = st.integers(span, span + 8)
    elif kind == "far":
        ids = st.integers(0, 2 ** 31 - 1)
    else:
        ids = st.integers(-2 ** 31, 50)
    return np.array(draw(st.lists(ids, min_size=n, max_size=n)),
                    dtype=np.int32)


class TestRenumberOracle:
    """``renumber_membership`` equals the ``np.unique`` oracle in values
    and dtypes whichever path it takes."""

    @settings(max_examples=300, deadline=None)
    @given(C=memberships())
    def test_matches_unique(self, C):
        _assert_matches_oracle(C)

    @pytest.mark.parametrize("C", [
        [], [0], [7], [-3], [2 ** 31 - 1], [5, -1, 5, 0],
        # just under / at the bound for three ids
        [0, DENSE_RENUMBER_SPAN * 3 - 1, 2], [0, DENSE_RENUMBER_SPAN * 3, 2],
    ])
    def test_edge_cases(self, C):
        _assert_matches_oracle(C)

    @pytest.mark.parametrize("C, dense", [
        ([0, DENSE_RENUMBER_SPAN * 3 - 1, 2], True),
        ([0, DENSE_RENUMBER_SPAN * 3, 2], False),
        ([5, -1, 5], False),
        ([], False),
    ])
    def test_path_choice(self, monkeypatch, C, dense):
        calls = []
        unique = np.unique

        def counted(*args, **kwargs):
            calls.append(1)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counted)
        renumber_membership(C)
        assert bool(calls) != dense

    def test_large_dense(self):
        rng = np.random.default_rng(0)
        _assert_matches_oracle(rng.integers(0, 50_000, 100_000))


class TestGroups:
    def test_groups_roundtrip(self):
        C = np.array([1, 0, 1, 2], dtype=np.int32)
        groups = groups_from_membership(C)
        assert groups == {0: [1], 1: [0, 2], 2: [3]}
        back = membership_from_groups(groups, 4)
        assert np.array_equal(back, C)

    def test_membership_from_groups_rejects_overlap(self):
        with pytest.raises(GraphStructureError):
            membership_from_groups({0: [0], 1: [0]}, 1)

    def test_membership_from_groups_rejects_gap(self):
        with pytest.raises(GraphStructureError):
            membership_from_groups({0: [0]}, 2)
