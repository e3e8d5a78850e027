"""Tests for the edge-list -> CSR build pipeline."""

import numpy as np
import pytest

from repro.errors import GraphStructureError
from repro.graph.builder import GraphBuilder, build_csr_from_edges


class TestBuildCsrFromEdges:
    def test_symmetrizes_by_default(self):
        g = build_csr_from_edges([0], [1])
        assert g.num_edges == 2
        assert g.neighbors(1).tolist() == [0]

    def test_no_symmetrize(self):
        g = build_csr_from_edges([0], [1], symmetrize=False)
        assert g.num_edges == 1
        assert g.degree(1) == 0

    def test_self_loop_not_duplicated(self):
        g = build_csr_from_edges([0, 0], [0, 1])
        # loop stored once, edge 0-1 stored twice
        assert g.num_edges == 3
        assert g.neighbors(0).tolist() == [0, 1]

    def test_drop_self_loops(self):
        g = build_csr_from_edges([0, 0], [0, 1], drop_self_loops=True)
        assert g.num_edges == 2

    def test_coalesce_sums_parallel_edges(self):
        g = build_csr_from_edges([0, 0], [1, 1], [2.0, 3.0])
        assert g.num_edges == 2
        assert g.edge_weights(0).tolist() == [5.0]

    def test_coalesce_max(self):
        g = build_csr_from_edges([0, 0], [1, 1], [2.0, 3.0], coalesce="max")
        assert g.edge_weights(0).tolist() == [3.0]

    def test_coalesce_none_keeps_multi_edges(self):
        g = build_csr_from_edges([0, 0], [1, 1], coalesce=None)
        assert g.num_edges == 4

    def test_default_weight_is_one(self):
        g = build_csr_from_edges([0], [1])
        assert g.edge_weights(0).tolist() == [1.0]

    def test_negative_ids_rejected(self):
        with pytest.raises(GraphStructureError):
            build_csr_from_edges([-1], [0])

    def test_id_beyond_num_vertices_rejected(self):
        with pytest.raises(GraphStructureError,
                           match="vertex id 5 out of range for 3 vertices"):
            build_csr_from_edges([0, 5], [1, 2], num_vertices=3)

    def test_id_beyond_int32_rejected_not_wrapped(self):
        big = np.array([0, 2 ** 32 + 1], dtype=np.int64)
        with pytest.raises(GraphStructureError,
                           match=f"vertex id {2 ** 32 + 1} does not fit"):
            build_csr_from_edges(big, [1, 2])
        with pytest.raises(GraphStructureError, match="does not fit"):
            build_csr_from_edges([0, 3_000_000_000], [1, 2])

    def test_num_vertices_inferred(self):
        g = build_csr_from_edges([3], [7])
        assert g.num_vertices == 8

    def test_num_vertices_explicit(self):
        g = build_csr_from_edges([0], [1], num_vertices=10)
        assert g.num_vertices == 10

    def test_empty_input(self):
        g = build_csr_from_edges([], [], num_vertices=3)
        assert g.num_vertices == 3
        assert g.num_edges == 0

    def test_targets_sorted_within_row(self):
        g = build_csr_from_edges([0, 0, 0], [5, 2, 9], num_vertices=10)
        assert g.neighbors(0).tolist() == [2, 5, 9]


class TestGraphBuilder:
    def test_incremental_build(self):
        g = (GraphBuilder()
             .add_edge(0, 1)
             .add_edge(1, 2, weight=2.0)
             .build())
        assert g.num_vertices == 3
        assert g.num_edges == 4
        assert g.edge_weights(2).tolist() == [2.0]

    def test_add_edges_mixed_tuples(self):
        g = GraphBuilder().add_edges([(0, 1), (1, 2, 3.0)]).build()
        assert g.edge_weights(2).tolist() == [3.0]

    def test_min_vertices_respected(self):
        g = GraphBuilder(num_vertices=6).add_edge(0, 1).build()
        assert g.num_vertices == 6

    def test_negative_rejected(self):
        with pytest.raises(GraphStructureError):
            GraphBuilder().add_edge(-1, 2)

    def test_build_empty(self):
        g = GraphBuilder(num_vertices=2).build()
        assert g.num_vertices == 2
        assert g.num_edges == 0

    def test_matches_direct_build(self):
        edges = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 0.5), (2, 2, 1.5)]
        via_builder = GraphBuilder().add_edges(edges).build()
        src, dst, wgt = zip(*edges)
        direct = build_csr_from_edges(src, dst, wgt)
        assert via_builder == direct
