"""Property tests for the counting-kernel / sort-kernel equivalence.

The counting kernels must be drop-in, *element-exact* replacements for
the sort kernels everywhere the batch engine uses them — and the batch
engine itself must keep matching the per-vertex loop references.  These
properties run whole phases and whole Leiden runs over random graphs,
including the awkward shapes: empty graphs, single-community graphs and
self-loop-heavy graphs, and whole Leiden runs on registry graphs.  The
sort family runs through :func:`tests.conftest.sort_kernels`; every
comparison asserts the oracle was called whenever the graph gave it
work.
"""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregate import aggregate_batch, aggregate_loop
from repro.core.config import LeidenConfig
from repro.core.leiden import leiden
from repro.core.local_move import local_move_batch
from repro.core.workspace import KernelWorkspace
from repro.datasets.registry import load_graph
from repro.graph.builder import build_csr_from_edges
from repro.metrics.partition import renumber_membership
from repro.parallel.runtime import Runtime
from repro.types import VERTEX_DTYPE
from tests.conftest import sort_kernels


@st.composite
def random_csr(draw, self_heavy=False):
    n = draw(st.integers(2, 40))
    m = draw(st.integers(0, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    if self_heavy and m:
        loops = rng.random(m) < 0.5
        dst = np.where(loops, src, dst)
    return build_csr_from_edges(src, dst, num_vertices=n)


def _row_sets(graph):
    """Per-vertex {target: weight} dicts — engine-order-independent."""
    rows = []
    for v in range(graph.num_vertices):
        dst, wgt = graph.edges(v)
        rows.append({int(d): float(w) for d, w in zip(dst, wgt)})
    return rows


def _has_links(graph) -> bool:
    """Whether any edge joins two distinct vertices — exactly when batch
    local-moving calls ``pair_sums`` (its first iteration visits every
    vertex)."""
    src, dst, _ = graph.to_coo()
    return bool((src != dst).any())


def _kernels(family: str):
    """``sort_kernels()`` for ``"sort"``; a no-op block for ``"count"``."""
    return sort_kernels() if family == "sort" else nullcontext()


def _leiden_both(graph):
    """Default (count) and sort-oracle Leiden runs of one graph."""
    count = leiden(graph, runtime=Runtime(num_threads=1))
    with sort_kernels() as calls:
        sort = leiden(graph, runtime=Runtime(num_threads=1))
    assert (calls["pair_sums"] > 0) == _has_links(graph)
    return sort, count


class TestEngineIdenticalOutput:
    @given(random_csr())
    @settings(max_examples=25, deadline=None)
    def test_leiden_sort_count_identical_membership(self, graph):
        sort, count = _leiden_both(graph)
        assert np.array_equal(sort.membership, count.membership)

    @given(random_csr(self_heavy=True))
    @settings(max_examples=15, deadline=None)
    def test_leiden_engines_identical_on_self_loop_heavy(self, graph):
        sort, count = _leiden_both(graph)
        assert np.array_equal(sort.membership, count.membership)


class TestRegistryOracle:
    """End to end on real registry shapes: a road network, a web crawl
    and a social graph."""

    @pytest.mark.parametrize("name", ["asia_osm", "uk-2002", "com-Orkut"])
    def test_sort_oracle_matches_default_run(self, name):
        graph = load_graph(name)
        count = leiden(graph, LeidenConfig(seed=42))
        with sort_kernels() as calls:
            sort = leiden(graph, LeidenConfig(seed=42))
        assert calls["pair_sums"] > 0
        assert calls["argmax"] > 0
        assert calls["aggregate"] > 0
        assert np.array_equal(sort.membership, count.membership)


class TestLocalMoveVsLoop:
    @given(random_csr(), st.sampled_from(["sort", "count"]))
    @settings(max_examples=20, deadline=None)
    def test_batch_sigma_bookkeeping_exact(self, graph, family):
        """After the batch phase, Σ must equal the recount from C."""
        n = graph.num_vertices
        K = graph.vertex_weights().copy()
        C = np.arange(n, dtype=VERTEX_DTYPE)
        Sigma = K.astype(np.float64).copy()
        with _kernels(family) as calls:
            local_move_batch(
                graph, C, K, Sigma, 0.01,
                runtime=Runtime(num_threads=1), workspace=KernelWorkspace(n),
            )
        if calls is not None:
            assert (calls["pair_sums"] > 0) == _has_links(graph)
        recount = np.bincount(C, weights=K, minlength=n)
        assert np.allclose(Sigma, recount)

    @given(random_csr())
    @settings(max_examples=15, deadline=None)
    def test_count_and_sort_batches_move_identically(self, graph):
        n = graph.num_vertices
        K = graph.vertex_weights().copy()
        results = []
        for family in ("sort", "count"):
            C = np.arange(n, dtype=VERTEX_DTYPE)
            Sigma = K.astype(np.float64).copy()
            with _kernels(family) as calls:
                local_move_batch(
                    graph, C, K, Sigma, 1e-6,
                    runtime=Runtime(num_threads=1),
                    workspace=KernelWorkspace(n),
                )
            if calls is not None:
                assert (calls["pair_sums"] > 0) == _has_links(graph)
            results.append((C.copy(), Sigma.copy()))
        assert np.array_equal(results[0][0], results[1][0])
        assert results[0][1].tobytes() == results[1][1].tobytes()


class TestAggregateVsLoop:
    @given(random_csr(), st.sampled_from(["sort", "count"]))
    @settings(max_examples=20, deadline=None)
    def test_batch_matches_loop_row_sets(self, graph, family):
        n = graph.num_vertices
        rng = np.random.default_rng(0)
        C, ids = renumber_membership(
            rng.integers(0, max(n // 3, 1), n).astype(VERTEX_DTYPE)
        )
        k = int(ids.shape[0])
        with _kernels(family) as calls:
            a = aggregate_batch(graph, C, k, runtime=Runtime(num_threads=1))
        if calls is not None:
            assert calls["aggregate"] == int(graph.num_edges > 0)
        b = aggregate_loop(graph, C, k, runtime=Runtime(num_threads=1))
        assert a.num_vertices == b.num_vertices == k
        ra, rb = _row_sets(a), _row_sets(b)
        for c in range(k):
            assert set(ra[c]) == set(rb[c])
            for d in ra[c]:
                assert abs(ra[c][d] - rb[c][d]) < 1e-4

    @given(random_csr(self_heavy=True))
    @settings(max_examples=10, deadline=None)
    def test_count_sort_aggregate_bitwise_identical(self, graph):
        n = graph.num_vertices
        rng = np.random.default_rng(1)
        C, ids = renumber_membership(
            rng.integers(0, max(n // 2, 1), n).astype(VERTEX_DTYPE)
        )
        k = int(ids.shape[0])
        with sort_kernels() as calls:
            a = aggregate_batch(graph, C, k, runtime=Runtime(num_threads=1))
        assert calls["aggregate"] == int(graph.num_edges > 0)
        b = aggregate_batch(graph, C, k, runtime=Runtime(num_threads=1))
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.degrees, b.degrees)
        assert np.array_equal(a.targets, b.targets)
        assert a.weights.tobytes() == b.weights.tobytes()

    def test_single_community_graph(self):
        """Everything collapses into one super-vertex self loop."""
        g = build_csr_from_edges([0, 1, 2], [1, 2, 0], num_vertices=3)
        C = np.zeros(3, dtype=VERTEX_DTYPE)
        for family in ("sort", "count"):
            with _kernels(family) as calls:
                agg = aggregate_batch(g, C, 1, runtime=Runtime(num_threads=1))
            if calls is not None:
                assert calls["aggregate"] == 1
            assert agg.num_vertices == 1
            dst, wgt = agg.edges(0)
            assert dst.tolist() == [0]
            assert float(wgt[0]) == float(g.weights.sum())

    def test_empty_graph(self):
        """An edgeless graph returns before any pair-sum kernel runs, so
        there is no sort-vs-count distinction to check."""
        g = build_csr_from_edges([], [], num_vertices=4)
        C = np.zeros(4, dtype=VERTEX_DTYPE)
        agg = aggregate_batch(g, C, 1, runtime=Runtime(num_threads=1))
        assert agg.num_vertices == 1
        assert agg.num_edges == 0
