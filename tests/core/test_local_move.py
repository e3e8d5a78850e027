"""Tests for the local-moving phase (both engines)."""

import numpy as np
import pytest

from repro.core.local_move import local_move_batch, local_move_loop
from repro.metrics.modularity import community_weights, modularity
from repro.parallel.runtime import Runtime
from repro.types import VERTEX_DTYPE
from tests.conftest import random_graph, ring_of_cliques_graph, two_cliques_graph


def run_move(graph, engine, tolerance=0.01, membership=None, **kwargs):
    n = graph.num_vertices
    C = (np.arange(n, dtype=VERTEX_DTYPE) if membership is None
         else membership.copy())
    K = graph.vertex_weights().copy()
    Sigma = community_weights(graph, C) if membership is not None else K.copy()
    rt = Runtime(seed=1)
    fn = local_move_batch if engine == "batch" else local_move_loop
    iters, dq = fn(graph, C, K, Sigma, tolerance, runtime=rt, **kwargs)
    return C, Sigma, iters, dq, rt


@pytest.mark.parametrize("engine", ["batch", "loop"])
class TestBothEngines:
    def test_finds_cliques(self, engine):
        g = two_cliques_graph()
        C, _, iters, _, _ = run_move(g, engine)
        assert len(np.unique(C[:5])) == 1
        assert len(np.unique(C[5:])) == 1
        assert C[0] != C[5]

    def test_improves_modularity(self, engine):
        g = ring_of_cliques_graph()
        n = g.num_vertices
        before = modularity(g, np.arange(n, dtype=VERTEX_DTYPE))
        C, _, _, _, _ = run_move(g, engine)
        assert modularity(g, C) > before + 0.3

    def test_sigma_consistent_after_moves(self, engine):
        g = random_graph(n=50, avg_degree=6, seed=2)
        C, Sigma, _, _, _ = run_move(g, engine)
        expect = np.bincount(C, weights=g.vertex_weights(),
                             minlength=g.num_vertices)
        assert Sigma == pytest.approx(expect)

    def test_respects_max_iterations(self, engine):
        g = random_graph(n=60, avg_degree=6, seed=3)
        _, _, iters, _, _ = run_move(g, engine, tolerance=0.0,
                                     max_iterations=2)
        assert iters <= 2

    def test_converged_graph_single_iteration(self, engine):
        g = two_cliques_graph()
        planted = np.array([0] * 5 + [1] * 5, dtype=VERTEX_DTYPE)
        C, _, iters, dq, _ = run_move(g, engine, membership=planted)
        assert iters == 1
        assert np.array_equal(C, planted)

    def test_records_work(self, engine):
        g = two_cliques_graph()
        _, _, _, _, rt = run_move(g, engine)
        assert rt.ledger.total_work > 0
        assert "local_move" in rt.ledger.phases()

    def test_empty_graph(self, engine):
        from repro.graph.csr import empty_csr
        g = empty_csr(0)
        C = np.empty(0, dtype=VERTEX_DTYPE)
        K = g.vertex_weights().copy()
        fn = local_move_batch if engine == "batch" else local_move_loop
        iters, dq = fn(g, C, K, K.copy(), 0.01, runtime=Runtime())
        assert iters == 1 and dq == 0.0

    def test_edgeless_graph(self, engine):
        from repro.graph.csr import empty_csr
        g = empty_csr(5)
        C = np.arange(5, dtype=VERTEX_DTYPE)
        K = g.vertex_weights().copy()
        fn = local_move_batch if engine == "batch" else local_move_loop
        iters, _ = fn(g, C, K, K.copy(), 0.01, runtime=Runtime())
        assert np.array_equal(C, np.arange(5))

    def test_self_loops_do_not_move_vertices_alone(self, engine):
        from repro.graph.builder import build_csr_from_edges
        g = build_csr_from_edges([0, 1], [0, 1])  # two self-loops only
        C, _, _, _, _ = run_move(g, engine)
        assert C.tolist() == [0, 1]


class TestEngineAgreement:
    @pytest.mark.parametrize("seed", range(3))
    def test_similar_quality(self, seed):
        g = random_graph(n=80, avg_degree=8, seed=seed)
        Cb, _, _, _, _ = run_move(g, "batch")
        Cl, _, _, _, _ = run_move(g, "loop")
        qb, ql = modularity(g, Cb), modularity(g, Cl)
        assert abs(qb - ql) < 0.1


class TestOscillationResistance:
    def test_path_graph_converges(self):
        """The conveyor pathology: a path must coalesce, not churn."""
        from tests.conftest import path_graph
        g = path_graph(64)
        C, _, iters, _, _ = run_move(g, "batch", batch_size=16)
        assert iters < 20  # did not hit the cap
        # communities should be contiguous runs of length >= 2 mostly
        assert len(np.unique(C)) < 40


class TestSelfEdgeFilterSkip:
    """On a loop-free graph the move scan without its self-edge filter
    returns the filtered scan's arrays bit for bit."""

    @staticmethod
    def _scan(graph, vs, C, K, Q, Sigma, quality, loops):
        from repro.core._kernels import (
            segment_pair_sums_packed,
            segmented_argmax_sorted,
        )
        from repro.core.local_move import scan_batch

        n = graph.num_vertices
        return scan_batch(
            vs, graph.degrees[vs], graph.offsets[:-1], graph.targets,
            graph.weights, C, K, Q, Sigma, graph.m, quality,
            lambda seg, comm, w, b: segment_pair_sums_packed(
                seg, comm, w, b, n),
            segmented_argmax_sorted, loops)

    @pytest.mark.parametrize("name", ["random", "ring", "asia_osm", "wide"])
    @pytest.mark.parametrize("kind", ["modularity", "cpm"])
    def test_skip_matches_filter(self, name, kind):
        from repro.core.quality import Quality
        from repro.datasets.registry import load_graph
        from repro.parallel.coloring import color_classes, color_graph
        from tests.conftest import wide_exponent_weights

        g = {"random": lambda: random_graph(n=300, avg_degree=8, seed=4),
             "ring": ring_of_cliques_graph,
             "asia_osm": lambda: load_graph("asia_osm", seed=1),
             "wide": lambda: wide_exponent_weights(
                 random_graph(n=300, avg_degree=8, seed=5))}[name]()
        assert not g.has_self_loops
        n = g.num_vertices
        rng = np.random.default_rng(7)
        C = rng.integers(0, max(n // 6, 1), n).astype(VERTEX_DTYPE)
        K = g.vertex_weights()
        quality = Quality(kind)
        Q = quality.vertex_quantity(K, np.ones(n))
        Sigma = np.bincount(C, weights=Q, minlength=n)
        scanned = 0
        for cls in color_classes(color_graph(g, seed=1)):
            for vs in (cls, cls[: 37]):
                want = self._scan(g, vs, C, K, Q, Sigma, quality, True)
                got = self._scan(g, vs, C, K, Q, Sigma, quality, False)
                for a, b in zip(got[:2], want[:2]):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
                assert (got[2] is None) == (want[2] is None)
                if want[2] is not None:
                    scanned += 1
                    for a, b in zip(got[2], want[2]):
                        assert a.dtype == b.dtype
                        assert a.tobytes() == b.tobytes()
        assert scanned > 0
