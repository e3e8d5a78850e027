"""Unit tests for the CSR graph structure (dense and holey)."""

import numpy as np
import pytest

from repro.errors import GraphStructureError
from repro.graph.builder import build_csr_from_edges
from repro.graph.csr import CSRGraph, empty_csr
from repro.types import OFFSET_DTYPE, VERTEX_DTYPE, WEIGHT_DTYPE


def make_holey():
    """Two vertices, capacity 3 each, degrees 2 and 1."""
    offsets = np.array([0, 3, 6], dtype=OFFSET_DTYPE)
    targets = np.array([1, 1, 0, 0, 0, 0], dtype=VERTEX_DTYPE)
    weights = np.array([1.0, 2.0, 0, 3.0, 0, 0], dtype=WEIGHT_DTYPE)
    degrees = np.array([2, 1], dtype=OFFSET_DTYPE)
    return CSRGraph(offsets, targets, weights, degrees)


class TestConstruction:
    def test_from_coo_basic(self):
        g = CSRGraph.from_coo([0, 1, 2], [1, 2, 0])
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert list(g.neighbors(0)) == [1]

    def test_from_coo_unsorted_sources(self):
        g = CSRGraph.from_coo([2, 0, 1, 0], [0, 1, 2, 2])
        assert list(g.neighbors(0)) == [1, 2]
        assert list(g.neighbors(2)) == [0]

    def test_from_coo_explicit_vertex_count(self):
        g = CSRGraph.from_coo([0], [1], num_vertices=5)
        assert g.num_vertices == 5
        assert g.degree(4) == 0

    def test_from_coo_default_weights_are_one(self):
        g = CSRGraph.from_coo([0, 1], [1, 0])
        assert g.edge_weights(0).tolist() == [1.0]

    def test_from_coo_length_mismatch(self):
        with pytest.raises(GraphStructureError):
            CSRGraph.from_coo([0, 1], [1])

    def test_from_coo_weight_mismatch(self):
        with pytest.raises(GraphStructureError):
            CSRGraph.from_coo([0, 1], [1, 0], [1.0])

    def test_empty(self):
        g = empty_csr(4)
        assert g.num_vertices == 4
        assert g.num_edges == 0
        assert g.total_weight == 0.0

    def test_zero_vertices(self):
        g = empty_csr(0)
        assert g.num_vertices == 0
        assert g.num_edges == 0

    def test_invalid_target_rejected(self):
        with pytest.raises(GraphStructureError):
            CSRGraph(
                np.array([0, 1]), np.array([5]), np.array([1.0])
            )

    def test_decreasing_offsets_rejected(self):
        with pytest.raises(GraphStructureError):
            CSRGraph(
                np.array([0, 2, 1]),
                np.array([0, 1, 0]),
                np.array([1.0, 1.0, 1.0]),
            )

    def test_degrees_exceeding_capacity_rejected(self):
        with pytest.raises(GraphStructureError):
            CSRGraph(
                np.array([0, 1, 2]),
                np.array([0, 1]),
                np.array([1.0, 1.0]),
                degrees=np.array([2, 0]),
            )


class TestTargetRangeCheck:
    """The construction check reads every used slot's target: on a dense
    graph (no row has slack) that is the slice between the first and
    last offset, on a holey graph the slots the used-slot mask selects."""

    def test_out_of_range_target_rejected_on_dense_graph(self):
        for slot, bad in ((0, 3), (2, -1), (3, 4)):
            targets = np.array([1, 2, 0, 0])
            targets[slot] = bad
            with pytest.raises(GraphStructureError, match="out of range"):
                CSRGraph(np.array([0, 2, 3, 4]), targets, np.ones(4))

    def test_out_of_range_target_rejected_on_holey_graph(self):
        offsets = np.array([0, 3, 6], dtype=OFFSET_DTYPE)
        degrees = np.array([2, 1], dtype=OFFSET_DTYPE)
        for slot, bad in ((1, 2), (3, -1)):
            targets = np.array([1, 1, 0, 0, 0, 0], dtype=VERTEX_DTYPE)
            targets[slot] = bad
            with pytest.raises(GraphStructureError, match="out of range"):
                CSRGraph(offsets, targets, np.ones(6), degrees)

    def test_holey_slack_slots_are_ignored(self):
        offsets = np.array([0, 3, 6], dtype=OFFSET_DTYPE)
        targets = np.array([1, 1, 99, 0, -7, 12345], dtype=VERTEX_DTYPE)
        g = CSRGraph(offsets, targets, np.ones(6),
                     np.array([2, 1], dtype=OFFSET_DTYPE))
        assert g.is_holey
        assert g.neighbors(0).tolist() == [1, 1]

    def test_dense_graph_ignores_slots_past_the_last_offset(self):
        # The edge arrays may be longer than offsets[-1]; only the used
        # prefix is checked, as with the used-slot mask.
        g = CSRGraph(np.array([0, 1, 2]), np.array([1, 0, 77]),
                     np.ones(3))
        assert not g.is_holey
        assert g.num_edges == 2

    def test_dense_check_skips_the_used_slot_mask(self, monkeypatch):
        calls = []
        used_mask = CSRGraph._used_mask

        def counting(self):
            calls.append(1)
            return used_mask(self)

        monkeypatch.setattr(CSRGraph, "_used_mask", counting)
        CSRGraph(np.array([0, 2, 3, 4]), np.array([1, 2, 0, 0]), np.ones(4))
        assert calls == []
        make_holey()
        assert calls == [1]


class TestProperties:
    def test_dtypes(self, small_random):
        g = small_random
        assert g.offsets.dtype == OFFSET_DTYPE
        assert g.targets.dtype == VERTEX_DTYPE
        assert g.weights.dtype == WEIGHT_DTYPE

    def test_total_weight_counts_both_directions(self, two_cliques):
        g = two_cliques
        # 2 cliques of 5 => 2*10 edges + 1 bridge, stored twice.
        assert g.num_edges == 2 * (20 + 1)
        assert g.total_weight == pytest.approx(g.num_edges)
        assert g.m == pytest.approx(g.num_edges / 2)

    def test_vertex_weights_match_manual(self, small_random_weighted):
        g = small_random_weighted
        K = g.vertex_weights()
        for i in range(g.num_vertices):
            assert K[i] == pytest.approx(float(g.edge_weights(i).sum()),
                                         rel=1e-6)

    def test_vertex_weights_empty_rows(self):
        g = CSRGraph.from_coo([0], [2], num_vertices=4)
        K = g.vertex_weights()
        assert K.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_neighbors_are_views(self, small_random):
        g = small_random
        i = next(v for v in range(g.num_vertices) if g.degree(v) > 0)
        nbrs = g.neighbors(i)
        assert nbrs.base is g.targets

    def test_iter_edges_count(self, two_cliques):
        assert len(list(two_cliques.iter_edges())) == two_cliques.num_edges

    def test_len(self, path10):
        assert len(path10) == 10


class TestHoley:
    def test_is_holey(self):
        g = make_holey()
        assert g.is_holey

    def test_dense_is_not_holey(self, path10):
        assert not path10.is_holey

    def test_holey_neighbors_skip_slack(self):
        g = make_holey()
        assert g.neighbors(0).tolist() == [1, 1]
        assert g.neighbors(1).tolist() == [0]

    def test_holey_vertex_weights(self):
        g = make_holey()
        assert g.vertex_weights().tolist() == [3.0, 3.0]

    def test_holey_to_coo_drops_slack(self):
        g = make_holey()
        src, dst, wgt = g.to_coo()
        assert src.tolist() == [0, 0, 1]
        assert dst.tolist() == [1, 1, 0]
        assert wgt.tolist() == [1.0, 2.0, 3.0]

    def test_holey_endpoints_drop_slack(self):
        src, dst = make_holey().endpoints()
        assert src.tolist() == [0, 0, 1]
        assert dst.tolist() == [1, 1, 0]

    def test_dense_endpoints_share_targets(self, path10):
        src, dst = path10.endpoints()
        assert dst is path10.targets
        assert src.tolist() == np.repeat(
            np.arange(10), np.diff(path10.offsets)).tolist()

    def test_compact_equivalence(self):
        g = make_holey()
        c = g.compact()
        assert not c.is_holey
        assert c == g
        assert c.num_edges == g.num_edges

    def test_compact_of_dense_is_identity(self, path10):
        assert path10.compact() is path10


class TestEquality:
    def test_equal_same_graph(self, path10):
        other = CSRGraph.from_coo(*path10.to_coo(),
                                  num_vertices=path10.num_vertices)
        assert path10 == other

    def test_unequal_different_weights(self):
        a = CSRGraph.from_coo([0, 1], [1, 0], [1.0, 1.0])
        b = CSRGraph.from_coo([0, 1], [1, 0], [2.0, 2.0])
        assert a != b

    def test_unequal_vertex_count(self):
        a = empty_csr(2)
        b = empty_csr(3)
        assert a != b


class TestSelfLoopFact:
    """``has_self_loops`` looks at real edges only and is cached."""

    def test_loop_free(self, two_cliques):
        assert two_cliques.has_self_loops is False

    def test_one_loop(self):
        n = 5000  # the loop sits past the first scan chunk
        src = np.arange(n - 1)
        dst = np.arange(1, n)
        assert build_csr_from_edges(src, dst).has_self_loops is False
        g = build_csr_from_edges(np.append(src, n - 1), np.append(dst, n - 1))
        assert g.has_self_loops is True

    def test_slack_entries_do_not_count(self):
        g = make_holey()  # row 0's slack slot holds target 0
        assert g.targets[2] == 0 and g.degrees[0] == 2
        assert g.has_self_loops is False
        loop = CSRGraph(g.offsets, g.targets, g.weights,
                        np.array([3, 1], dtype=OFFSET_DTYPE))
        assert loop.has_self_loops is True

    def test_holey_aggregated_graph(self, ring_of_cliques):
        from repro.core.aggregate import aggregate_batch
        from repro.parallel.runtime import Runtime

        g = ring_of_cliques
        C = np.arange(g.num_vertices) // 5
        sup = aggregate_batch(g, C, int(C.max()) + 1,
                              runtime=Runtime(num_threads=1))
        assert sup.is_holey and sup.has_self_loops
        apart = aggregate_batch(g, np.arange(g.num_vertices), g.num_vertices,
                                runtime=Runtime(num_threads=1))
        assert apart.has_self_loops is False

    def test_cached(self, monkeypatch):
        g = build_csr_from_edges([0, 1], [1, 1])
        assert g.has_self_loops is True
        monkeypatch.setattr(np, "repeat", None)
        assert g.has_self_loops is True
