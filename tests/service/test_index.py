"""Tests for the query-side community index."""

import numpy as np
import pytest

from repro.service.index import CommunityIndex
from tests.conftest import weighted_triangle_graph


@pytest.fixture
def index():
    return CommunityIndex([0, 1, 0, 2, 1, 0])


class TestBasics:
    def test_shape(self, index):
        assert index.num_vertices == 6
        assert index.num_communities == 3

    def test_community_of(self, index):
        assert index.community_of(0) == 0
        assert index.community_of(3) == 2

    def test_members_sorted(self, index):
        assert index.members(0).tolist() == [0, 2, 5]
        assert index.members(1).tolist() == [1, 4]
        assert index.members(2).tolist() == [3]

    def test_sizes(self, index):
        assert [index.size(c) for c in range(3)] == [3, 2, 1]
        assert int(index.sizes.sum()) == index.num_vertices

    def test_members_partition_vertices(self, index):
        everyone = np.concatenate(
            [index.members(c) for c in range(index.num_communities)])
        assert sorted(everyone.tolist()) == list(range(6))

    def test_empty_membership(self):
        idx = CommunityIndex([])
        assert idx.num_vertices == 0
        assert idx.num_communities == 0

    def test_nbytes_positive(self, index):
        assert index.nbytes > 0


class TestMembersSlice:
    def test_returns_members(self):
        """The server's ``members`` query returns the ascending row."""
        idx = CommunityIndex([2, 0, 1, 0, 2, 1, 0])
        for c in range(idx.num_communities):
            assert idx.members_slice(c).tolist() == idx.members(c).tolist()


class TestNeighborCommunities:
    def test_weighted_aggregation(self):
        g = weighted_triangle_graph()
        idx = CommunityIndex([0, 1, 1])
        comms, weights = idx.neighbor_communities(g, 0)
        # vertex 0 touches 1 (w=1) and 2 (w=3), both community 1.
        assert comms.tolist() == [1]
        assert weights.tolist() == [4.0]

    def test_split_communities(self):
        g = weighted_triangle_graph()
        idx = CommunityIndex([0, 1, 2])
        comms, weights = idx.neighbor_communities(g, 1)
        assert comms.tolist() == [0, 2]
        assert weights.tolist() == [1.0, 2.0]

    def test_isolated_vertex(self):
        from repro.graph.builder import build_csr_from_edges

        g = build_csr_from_edges([0], [1], num_vertices=3)
        idx = CommunityIndex([0, 0, 1])
        comms, weights = idx.neighbor_communities(g, 2)
        assert comms.shape == (0,)
        assert weights.shape == (0,)
