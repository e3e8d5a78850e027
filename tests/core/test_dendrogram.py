"""Tests for the dendrogram type."""

import numpy as np
import pytest

from repro.core.dendrogram import Dendrogram
from repro.errors import GraphStructureError


class TestAddLevel:
    def test_basic(self):
        d = Dendrogram()
        d.add_level([0, 0, 1, 1])
        assert d.num_levels == 1
        assert d.num_communities(0) == 2

    def test_size_chain_enforced(self):
        d = Dendrogram()
        d.add_level([0, 0, 1, 1])
        with pytest.raises(GraphStructureError):
            d.add_level([0, 0, 0])  # previous level has 2 communities

    def test_surjectivity_enforced(self):
        d = Dendrogram()
        with pytest.raises(GraphStructureError):
            d.add_level([0, 2])  # skips community 1

    def test_negative_rejected(self):
        with pytest.raises(GraphStructureError):
            Dendrogram().add_level([-1, 0])

    def test_2d_rejected(self):
        with pytest.raises(GraphStructureError):
            Dendrogram().add_level(np.zeros((2, 2), dtype=np.int32))

    @pytest.mark.parametrize("copies", [1, 2])
    def test_large_surjective_level(self, copies):
        k = 100_000
        level = np.random.default_rng(0).permutation(
            np.arange(copies * k) % k)
        d = Dendrogram()
        d.add_level(level)
        assert d.num_communities(0) == k

    @pytest.mark.parametrize("missing", [50_000, 99_998])
    def test_large_level_missing_one_id(self, missing):
        # k = 100_000 ids with one gone: a middle one, or the one just
        # below the highest (which stays, so k is unchanged).
        k = 100_000
        ids = np.delete(np.arange(k), missing)
        level = np.random.default_rng(1).permutation(np.repeat(ids, 2))
        with pytest.raises(GraphStructureError, match="surjective"):
            Dendrogram().add_level(level)

    def test_id_beyond_length_rejected(self):
        with pytest.raises(GraphStructureError, match="surjective"):
            Dendrogram().add_level([0, 2 ** 31 - 1])


class TestFlatten:
    def test_single_level(self):
        d = Dendrogram()
        d.add_level([0, 1, 0])
        assert d.flatten().tolist() == [0, 1, 0]

    def test_composition(self):
        d = Dendrogram()
        d.add_level([0, 0, 1, 1, 2, 2])  # 6 -> 3
        d.add_level([0, 0, 1])           # 3 -> 2
        assert d.flatten().tolist() == [0, 0, 0, 0, 1, 1]

    def test_upto(self):
        d = Dendrogram()
        d.add_level([0, 0, 1, 1])
        d.add_level([0, 0])
        assert d.flatten(upto=1).tolist() == [0, 0, 1, 1]
        assert d.flatten(upto=2).tolist() == [0, 0, 0, 0]

    def test_memberships_list(self):
        d = Dendrogram()
        d.add_level([0, 1, 1])
        d.add_level([0, 0])
        levels = d.memberships()
        assert levels[0].tolist() == [0, 1, 1]
        assert levels[1].tolist() == [0, 0, 0]

    def test_empty_raises(self):
        with pytest.raises(GraphStructureError):
            Dendrogram().flatten()

    def test_iter_and_len(self):
        d = Dendrogram()
        d.add_level([0, 0])
        assert len(d) == 1
        assert [lvl.tolist() for lvl in d] == [[0, 0]]
