"""Tests for the aggregation phase (both engines).

Set ``REPRO_FULL_REGISTRY=1`` (the CI cron job does) to run the
range-invariance oracle on every registry graph instead of the smoke
pair.
"""

import os
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.kernels import aggregate_one_shot
from repro.core.aggregate import (
    AGGREGATE_RANGE_EDGES,
    aggregate_batch,
    aggregate_loop,
    community_ranges,
    community_vertices_csr,
)
from repro.core.config import LeidenConfig
from repro.core.leiden import leiden
from repro.datasets.registry import load_graph, registry_names
from repro.graph.builder import build_csr_from_edges
from repro.metrics.modularity import modularity
from repro.metrics.partition import renumber_membership
from repro.parallel.runtime import Runtime
from repro.types import VERTEX_DTYPE
from tests.conftest import (
    aggregate_ranges,
    random_graph,
    sort_kernels,
    two_cliques_graph,
    wide_exponent_weights,
)

FULL_REGISTRY = os.environ.get("REPRO_FULL_REGISTRY") == "1"


def aggregate(graph, membership, engine):
    C, ids = renumber_membership(membership)
    fn = aggregate_batch if engine == "batch" else aggregate_loop
    return fn(graph, C, len(ids), runtime=Runtime())


class TestCommunityVerticesCsr:
    def test_groups_members(self):
        C = np.array([1, 0, 1, 1], dtype=VERTEX_DTYPE)
        offsets, vertices = community_vertices_csr(C, 2)
        assert offsets.tolist() == [0, 1, 4]
        assert vertices[0] == 1
        assert sorted(vertices[1:4].tolist()) == [0, 2, 3]

    def test_empty_communities_get_empty_rows(self):
        C = np.array([0, 2], dtype=VERTEX_DTYPE)
        offsets, _ = community_vertices_csr(C, 3)
        assert offsets.tolist() == [0, 1, 1, 2]

    @given(st.integers(0, 300), st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_members_in_ascending_order(self, n, k, seed):
        """The vertex list is the stable argsort of the membership: each
        community's members ascend, which keeps every super-edge's
        summation order equal to the whole-graph edge order."""
        C = np.random.default_rng(seed).integers(0, k, n).astype(VERTEX_DTYPE)
        _, vertices = community_vertices_csr(C, k)
        assert vertices.dtype == VERTEX_DTYPE
        assert np.array_equal(vertices, np.argsort(C, kind="stable"))


class TestCommunityRanges:
    def test_ranges_cover_all_communities(self):
        offsets = np.array([0, 0, 3, 3, 5, 9, 10])
        assert community_ranges(offsets, 1).tolist() == [0, 2, 4, 5, 6]
        assert community_ranges(offsets, 4).tolist() == [0, 4, 5, 6]
        assert community_ranges(offsets, 10).tolist() == [0, 6]

    def test_large_community_is_its_own_range(self):
        offsets = np.array([0, 1, 100, 101, 102])
        assert community_ranges(offsets, 8).tolist() == [0, 2, 4]

    def test_no_communities(self):
        assert community_ranges(np.zeros(1, dtype=np.int64), 8).tolist() == [0]


@pytest.mark.parametrize("engine", ["batch", "loop"])
class TestAggregation:
    def test_two_cliques_collapse(self, engine):
        g = two_cliques_graph()
        C = np.array([0] * 5 + [1] * 5, dtype=VERTEX_DTYPE)
        sup = aggregate(g, C, engine)
        assert sup.num_vertices == 2
        # self-loops hold intra-clique weight (20 each, both directions);
        # one cross edge each way.
        src, dst, wgt = sup.to_coo()
        triples = {(int(u), int(v)): float(w)
                   for u, v, w in zip(src, dst, wgt)}
        assert triples[(0, 0)] == pytest.approx(20.0)
        assert triples[(1, 1)] == pytest.approx(20.0)
        assert triples[(0, 1)] == pytest.approx(1.0)
        assert triples[(1, 0)] == pytest.approx(1.0)

    def test_total_weight_preserved(self, engine):
        g = random_graph(n=60, avg_degree=6, seed=0, weighted=True)
        rng = np.random.default_rng(1)
        C = rng.integers(0, 7, g.num_vertices)
        sup = aggregate(g, C, engine)
        assert sup.total_weight == pytest.approx(g.total_weight, rel=1e-6)

    def test_vertex_weights_aggregate(self, engine):
        g = random_graph(n=40, avg_degree=5, seed=2, weighted=True)
        rng = np.random.default_rng(2)
        C = rng.integers(0, 5, g.num_vertices)
        Cren, ids = renumber_membership(C)
        sup = aggregate(g, C, engine)
        K = g.vertex_weights()
        expect = np.bincount(Cren, weights=K, minlength=len(ids))
        assert sup.vertex_weights() == pytest.approx(expect, rel=1e-6)

    def test_modularity_invariant_under_aggregation(self, engine):
        """Q of the partition equals Q of the super-graph's singletons."""
        g = random_graph(n=50, avg_degree=6, seed=3)
        rng = np.random.default_rng(3)
        C = rng.integers(0, 6, g.num_vertices)
        Cren, ids = renumber_membership(C)
        sup = aggregate(g, C, engine)
        q_partition = modularity(g, Cren)
        q_super = modularity(sup, np.arange(len(ids), dtype=VERTEX_DTYPE))
        assert q_super == pytest.approx(q_partition, abs=1e-6)

    def test_holey_csr_produced(self, engine):
        g = two_cliques_graph()
        C = np.array([0] * 5 + [1] * 5, dtype=VERTEX_DTYPE)
        sup = aggregate(g, C, engine)
        # capacity was overestimated by total community degree
        assert sup.offsets[-1] == g.num_edges
        assert sup.is_holey

    def test_identity_membership_roundtrip(self, engine):
        g = random_graph(n=20, avg_degree=4, seed=5, weighted=True)
        C = np.arange(g.num_vertices, dtype=VERTEX_DTYPE)
        sup = aggregate(g, C, engine)
        assert sup.compact() == g.compact()

    def test_singleton_graph(self, engine):
        from repro.graph.builder import build_csr_from_edges
        g = build_csr_from_edges([0], [1])
        C = np.zeros(2, dtype=VERTEX_DTYPE)
        sup = aggregate(g, C, engine)
        assert sup.num_vertices == 1
        src, dst, wgt = sup.to_coo()
        assert wgt.sum() == pytest.approx(2.0)  # both directions folded


class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    def test_same_graph(self, seed):
        g = random_graph(n=50, avg_degree=7, seed=seed, weighted=True)
        rng = np.random.default_rng(seed)
        C = rng.integers(0, 8, g.num_vertices)
        a = aggregate(g, C, "batch")
        b = aggregate(g, C, "loop")
        assert a.num_vertices == b.num_vertices
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.degrees, b.degrees)
        assert a == b


def _range_sizes(graph):
    """1, 7, the default, and one range holding every edge."""
    return (1, 7, AGGREGATE_RANGE_EDGES, max(graph.num_edges, 1))


def _assert_range_invariant(graph, C, k):
    """Every range size writes the bits of one whole-graph oracle call,
    and the sort oracle runs once per range that holds an edge."""
    ref = aggregate_one_shot(graph, C, k)
    for size in _range_sizes(graph):
        for oracle in (False, True):
            with aggregate_ranges(size) as ranges, (
                    sort_kernels() if oracle else nullcontext()) as calls:
                sup = aggregate_batch(graph, C, k, runtime=Runtime())
            got = (sup.offsets, sup.degrees, sup.targets, sup.weights)
            for r, g in zip(ref, got):
                assert g.dtype == r.dtype
                assert g.tobytes() == r.tobytes(), size
            if graph.num_edges == 0:
                assert ranges == []
                continue
            assert [c0 for c0, _, _ in ranges] == [0] + [
                c1 for _, c1, _ in ranges[:-1]]
            assert ranges[-1][1] == k
            assert all(c1 > c0 for c0, c1, _ in ranges)
            if size >= graph.num_edges:
                assert len(ranges) == 1
            if oracle:
                assert calls["aggregate"] == sum(e > 0 for _, _, e in ranges)


@st.composite
def graph_and_membership(draw):
    n = draw(st.integers(1, 60))
    m = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    loops = rng.random(m) < draw(st.sampled_from([0.0, 0.3]))
    dst = np.where(loops, src, dst)
    graph = wide_exponent_weights(
        build_csr_from_edges(src, dst, num_vertices=n),
        seed=draw(st.integers(0, 100)))
    C, ids = renumber_membership(
        rng.integers(0, draw(st.integers(1, n)), n).astype(VERTEX_DTYPE))
    return graph, C, int(ids.shape[0])


class TestRangeInvariance:
    """The range-wise aggregation equals one whole-graph call bitwise at
    every range size, with weights whose sums are inexact."""

    @given(graph_and_membership())
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_graphs(self, case):
        _assert_range_invariant(*case)

    @pytest.mark.parametrize(
        "name",
        sorted(registry_names()) if FULL_REGISTRY else ("asia_osm", "uk-2002"))
    def test_registry_pass0(self, name):
        graph = load_graph(name)
        C = leiden(graph, LeidenConfig(seed=42)).dendrogram.level(0)
        _assert_range_invariant(
            wide_exponent_weights(graph), C, int(C.max()) + 1)


class TestRangeMemory:
    def test_transient_bounded_by_one_range(self):
        """With many ranges, the traced transient is the output plus a
        few dozen bytes per edge of the widest range and per vertex —
        not per edge of the graph, as the whole-graph sums cost."""
        graph = random_graph(n=20000, avg_degree=14, seed=7, weighted=True)
        n = graph.num_vertices
        C, ids = renumber_membership(
            np.random.default_rng(7).integers(0, 2000, n).astype(VERTEX_DTYPE))
        k = int(ids.shape[0])
        runtime = Runtime()
        # A first call pays one-time allocations (lazy imports, numpy
        # caches) that are no part of the pass's transient.
        aggregate_batch(graph, C, k, runtime=runtime)
        with aggregate_ranges(4096) as ranges:
            tracemalloc.start()
            try:
                sup = aggregate_batch(graph, C, k, runtime=runtime)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(ranges) >= 8
        output = sum(a.nbytes for a in (
            sup.offsets, sup.degrees, sup.targets, sup.weights))
        widest = max(e for _, _, e in ranges)
        assert peak - output < 128 * widest + 64 * n
        assert 128 * widest + 64 * n < 8 * graph.num_edges
