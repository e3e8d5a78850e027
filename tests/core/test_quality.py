"""Tests for the quality-function abstraction (modularity + CPM)."""

import numpy as np
import pytest

from repro.core.config import LeidenConfig
from repro.core.leiden import leiden
from repro.core.quality import Quality, cpm_quality
from repro.errors import ConfigError
from repro.metrics.modularity import delta_modularity
from repro.types import VERTEX_DTYPE
from tests.conftest import random_graph, ring_of_cliques_graph, two_cliques_graph


class TestQualityObject:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            Quality("conductance")

    def test_rejects_bad_resolution(self):
        for kind in ("modularity", "cpm"):
            for bad in (0.0, -1.0, float("nan"), float("inf")):
                with pytest.raises(ConfigError):
                    Quality(kind, bad)

    def test_vertex_quantity_selection(self):
        K = np.array([2.0, 3.0])
        s = np.array([1.0, 5.0])
        assert Quality("modularity").vertex_quantity(K, s) is K
        assert Quality("cpm").vertex_quantity(K, s).tolist() == [1.0, 5.0]

    def test_modularity_delta_matches_metric(self):
        q = Quality("modularity", 1.0)
        got = q.delta(3.0, 1.0, 2.0, 2.0, 5.0, 4.0, 10.0)
        expect = delta_modularity(3.0, 1.0, 2.0, 5.0, 4.0, 10.0)
        assert float(got) == pytest.approx(float(expect))


class TestCpmDeltaConsistency:
    @pytest.mark.parametrize("seed", range(3))
    def test_delta_matches_brute_force(self, seed):
        g = random_graph(n=25, avg_degree=5, seed=seed)
        rng = np.random.default_rng(seed)
        gamma = 0.05
        q = Quality("cpm", gamma)
        C = rng.integers(0, 4, g.num_vertices).astype(VERTEX_DTYPE)
        sizes = np.ones(g.num_vertices)
        S = np.bincount(C, weights=sizes, minlength=4)
        m = g.m
        for _ in range(12):
            i = int(rng.integers(0, g.num_vertices))
            c = int(rng.integers(0, 4))
            d = int(C[i])
            if c == d:
                continue
            dst, wgt = g.edges(i)
            notself = dst != i
            kic = float(wgt[notself][C[dst[notself]] == c].sum(dtype=np.float64))
            kid = float(wgt[notself][C[dst[notself]] == d].sum(dtype=np.float64))
            dq = float(q.delta(kic, kid, 0.0, 1.0, S[c], S[d], m))
            before = cpm_quality(g, C, resolution=gamma)
            C2 = C.copy()
            C2[i] = c
            after = cpm_quality(g, C2, resolution=gamma)
            assert dq == pytest.approx(after - before, abs=1e-9)


class TestCpmLeiden:
    def test_finds_cliques(self):
        g = two_cliques_graph()
        res = leiden(g, LeidenConfig(quality="cpm", resolution=0.3))
        assert res.num_communities == 2

    def test_no_resolution_limit(self):
        """CPM's selling point: on a ring of many small cliques, CPM at a
        suitable γ keeps the cliques separate even when there are many of
        them (where modularity would start merging neighbouring cliques)."""
        g = ring_of_cliques_graph(12, 4)
        res = leiden(g, LeidenConfig(quality="cpm", resolution=0.5))
        assert res.num_communities == 12

    def test_gamma_controls_granularity(self):
        g = random_graph(n=120, avg_degree=8, seed=4)
        fine = leiden(g, LeidenConfig(quality="cpm", resolution=0.5))
        coarse = leiden(g, LeidenConfig(quality="cpm", resolution=0.02))
        assert fine.num_communities >= coarse.num_communities

    def test_high_gamma_gives_singletons(self):
        g = random_graph(n=50, avg_degree=4, seed=2)
        res = leiden(g, LeidenConfig(quality="cpm", resolution=100.0))
        assert res.num_communities == g.num_vertices

    def test_improves_cpm_objective(self):
        g = random_graph(n=100, avg_degree=8, seed=6)
        gamma = 0.05
        res = leiden(g, LeidenConfig(quality="cpm", resolution=gamma))
        singles = np.arange(g.num_vertices, dtype=VERTEX_DTYPE)
        assert cpm_quality(g, res.membership, resolution=gamma) > \
            cpm_quality(g, singles, resolution=gamma)

    def test_no_disconnected_communities(self):
        g = random_graph(n=150, avg_degree=5, seed=8)
        from repro.metrics.connectivity import disconnected_communities
        res = leiden(g, LeidenConfig(quality="cpm", resolution=0.05))
        assert disconnected_communities(g, res.membership).num_disconnected == 0

    @pytest.mark.parametrize("engine", ["batch", "loop"])
    def test_both_engines(self, engine):
        g = two_cliques_graph()
        res = leiden(g, LeidenConfig(quality="cpm", resolution=0.3,
                                     engine=engine))
        assert res.num_communities == 2

    def test_config_rejects_unknown_quality(self):
        with pytest.raises(ConfigError):
            LeidenConfig(quality="surprise")


class TestCpmQualityMetric:
    def test_single_community_value(self):
        g = two_cliques_graph()
        C = np.zeros(10, dtype=VERTEX_DTYPE)
        # e = 21 edges, penalty = γ·45, m = 21
        gamma = 0.1
        expect = (21 - gamma * 45) / 21.0
        assert cpm_quality(g, C, resolution=gamma) == pytest.approx(expect)

    def test_singletons_value_zero_penalty(self):
        g = two_cliques_graph()
        C = np.arange(10, dtype=VERTEX_DTYPE)
        assert cpm_quality(g, C, resolution=1.0) == pytest.approx(0.0)

    def test_node_sizes_respected(self):
        g = two_cliques_graph()
        C = np.zeros(10, dtype=VERTEX_DTYPE)
        small = cpm_quality(g, C, resolution=0.1)
        big = cpm_quality(g, C, resolution=0.1,
                          node_sizes=np.full(10, 2.0))
        assert big < small  # larger sizes, larger penalty

    def test_empty_graph(self):
        from repro.graph.csr import empty_csr
        assert cpm_quality(empty_csr(0), np.empty(0, dtype=VERTEX_DTYPE)) == 0.0
