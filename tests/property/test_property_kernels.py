"""Property tests for the production-kernel / sort-kernel equivalence.

The production kernels (packed-key pair sums, sorted argmax) must be
drop-in, *element-exact* replacements for the sort kernels everywhere
the batch engine uses them — and the batch engine itself must keep
matching the per-vertex loop references.  These properties test the
packed pair sums at the edges of its key layout, then run whole phases
and whole Leiden runs over random graphs, including the awkward shapes:
empty graphs, single-community graphs and self-loop-heavy graphs, and
whole Leiden runs on registry graphs.  The sort family runs through
:func:`tests.conftest.sort_kernels`; every comparison asserts the
oracle was called whenever the graph gave it work.

Set ``REPRO_FULL_REGISTRY=1`` (the CI cron job does) to run the
registry oracle on every registry graph instead of the smoke subset.
"""

import os
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core._kernels import (
    segment_pair_sums_packed,
    segment_pair_sums_sort,
)
from repro.core.aggregate import aggregate_batch, aggregate_loop
from repro.core.config import LeidenConfig
from repro.core.leiden import leiden
from repro.core.local_move import local_move_batch
from repro.core.workspace import KernelWorkspace
from repro.datasets.registry import load_graph, registry_names
from repro.graph.builder import build_csr_from_edges
from repro.metrics.partition import renumber_membership
from repro.parallel.runtime import Runtime
from repro.types import VERTEX_DTYPE
from tests.conftest import sort_kernels

FULL_REGISTRY = os.environ.get("REPRO_FULL_REGISTRY") == "1"

SMOKE_GRAPHS = ("asia_osm", "uk-2002", "com-Orkut")


def _packed_width(num: int, num_segments: int, num_communities: int) -> int:
    """Bits the packed key needs: segment + community + position."""
    return ((num_segments - 1).bit_length()
            + (num_communities - 1).bit_length() + (num - 1).bit_length())


@st.composite
def pair_sums_case(draw):
    """Inputs at the edges of the packed key layout.

    The edge count is often 1, ``2^k`` or ``2^k + 1`` (the sizes where
    the position field's width steps); the bounds are often 1 or sized
    so the packed key takes exactly 63 or 64 bits; ``seg`` is sorted or
    not; weights are integer-valued (exact sums, checkable against a
    dict) or float32 over 16 decades with both signs; rows may be
    dominated by one community, as self-loop-heavy rows are.
    """
    k = draw(st.integers(0, 9))
    num = draw(st.sampled_from([1, 2 ** k, 2 ** k + 1])
               | st.integers(1, 600))
    pb = (num - 1).bit_length()
    # Actual ids stay small enough for the oracle's seg * n + comm key.
    seg_hi = draw(st.integers(1, 40))
    comm_hi = draw(st.integers(1, 60))
    width = draw(st.sampled_from(["tight", "one", "63", "64"]))
    if width == "tight":
        num_segments, num_communities = seg_hi, comm_hi
    elif width == "one":
        seg_hi = comm_hi = num_segments = num_communities = 1
    else:
        # pb <= 10 and cb <= 40 leave sb >= 13, room for every seg id.
        cb = draw(st.integers((comm_hi - 1).bit_length(), 40))
        sb = int(width) - pb - cb
        num_segments, num_communities = 1 << sb, 1 << cb
        # The largest community id sits in the top of its field.
        comm_hi = max(comm_hi, min(num_communities, 1 << 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    seg = rng.integers(0, seg_hi, num)
    if draw(st.booleans()):
        seg.sort()
    comm = rng.integers(0, comm_hi, num)
    if comm_hi > 1:
        comm[rng.random(num) < 0.2] = comm_hi - 1
    if draw(st.booleans()):  # self-loop-heavy rows: one community dominates
        comm[rng.random(num) < 0.7] = int(rng.integers(0, comm_hi))
    exact = draw(st.booleans())
    if exact:
        w = rng.integers(-3, 4, num).astype(np.float32)  # zero groups too
    else:
        w = (rng.uniform(1, 2, num) * 10.0 ** rng.uniform(-8, 8, num)
             * rng.choice([-1.0, 1.0], num)).astype(np.float32)
    return seg, comm, w, num_segments, num_communities, exact


class TestPackedPairSums:
    """The packed kernel equals the sort oracle bitwise on all three
    outputs, on both sides of the 63-bit fallback."""

    @given(pair_sums_case())
    @settings(max_examples=300, deadline=None)
    def test_equals_sort_oracle(self, case):
        seg, comm, w, num_segments, num_communities, exact = case
        got = segment_pair_sums_packed(
            seg, comm, w, num_segments, num_communities)
        ref = segment_pair_sums_sort(seg, comm, w, num_communities)
        for g, r in zip(got, ref):
            assert g.dtype == r.dtype
            assert g.tobytes() == r.tobytes()
        if exact:
            sums = {}
            for s, c, x in zip(seg.tolist(), comm.tolist(), w.tolist()):
                sums[(s, c)] = sums.get((s, c), 0.0) + x
            assert list(zip(got[0].tolist(), got[1].tolist())) == sorted(sums)
            assert got[2].tolist() == [sums[p] for p in sorted(sums)]

    @pytest.mark.parametrize("width", [63, 64])
    @pytest.mark.parametrize("num", [1, 2, 1024, 1025])
    def test_width_at_the_fallback_bound(self, width, num):
        """Exactly 63 bits packs; 64 takes the fallback.  Integer-valued
        weights make the sums exact, so a dict sum checks both sides."""
        rng = np.random.default_rng(width * 7 + num)
        pb = (num - 1).bit_length()
        cb = 30
        num_segments, num_communities = 1 << (width - pb - cb), 1 << cb
        assert _packed_width(num, num_segments, num_communities) == width
        seg = rng.integers(0, 50, num)
        comm = rng.integers(num_communities - 8, num_communities, num)
        w = rng.integers(-5, 6, num).astype(np.float64)
        got = segment_pair_sums_packed(
            seg, comm, w, num_segments, num_communities)
        sums = {}
        for s, c, x in zip(seg.tolist(), comm.tolist(), w.tolist()):
            sums[(s, c)] = sums.get((s, c), 0.0) + x
        assert list(zip(got[0].tolist(), got[1].tolist())) == sorted(sums)
        assert got[2].tolist() == [sums[p] for p in sorted(sums)]
        ref = segment_pair_sums_sort(seg, comm, w, num_communities)
        for g, r in zip(got, ref):
            assert g.tobytes() == r.tobytes()


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
    and a social graph (every registry graph with
    ``REPRO_FULL_REGISTRY=1``)."""

    @pytest.mark.parametrize(
        "name", sorted(registry_names()) if FULL_REGISTRY else SMOKE_GRAPHS)
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
