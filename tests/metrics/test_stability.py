"""Tests for seed-stability analysis."""

import numpy as np
import pytest

from repro.core.louvain import louvain
from repro.datasets.sbm import planted_partition
from repro.metrics.stability import seed_stability
from tests.conftest import random_graph, two_cliques_graph


class TestSeedStability:
    def test_strong_structure_is_stable(self):
        g, _ = planted_partition(5, 30, intra_degree=14, inter_degree=1,
                                 seed=0)
        report = seed_stability(g, seeds=(1, 2, 3))
        assert report.mean_similarity > 0.95
        assert report.similarity.min() > 0.9

    def test_similarity_matrix_shape(self):
        g = two_cliques_graph()
        report = seed_stability(g, seeds=(1, 2, 3, 4))
        assert report.similarity.shape == (4, 4)
        assert np.allclose(np.diag(report.similarity), 1.0)
        assert np.allclose(report.similarity, report.similarity.T)

    def test_perfectly_stable_graph(self):
        g = two_cliques_graph()
        report = seed_stability(g, seeds=(1, 2, 3))
        assert report.mean_similarity == pytest.approx(1.0)
        assert [len(np.unique(m)) for m in report.memberships] == [2, 2, 2]

    def test_coassignment_confidence(self):
        """Every seed places vertices of one clique together and the
        two cliques apart."""
        g = two_cliques_graph()
        report = seed_stability(g, seeds=(1, 2, 3))
        assert all(m[0] == m[1] for m in report.memberships)
        assert not any(m[0] == m[9] for m in report.memberships)

    def test_ari_metric(self):
        g = two_cliques_graph()
        report = seed_stability(g, metric="ari", seeds=(1, 2))
        assert report.metric == "ari"
        assert report.mean_similarity == pytest.approx(1.0)

    def test_unknown_metric(self):
        g = two_cliques_graph()
        with pytest.raises(ValueError):
            seed_stability(g, metric="f1")

    def test_alternative_algorithm(self):
        g = two_cliques_graph()
        report = seed_stability(g, algorithm=louvain, seeds=(1, 2))
        assert [len(np.unique(m)) for m in report.memberships] == [2, 2]

    def test_weak_structure_less_stable_than_strong(self):
        strong, _ = planted_partition(4, 30, intra_degree=14,
                                      inter_degree=1, seed=1)
        weak = random_graph(n=120, avg_degree=6, seed=1)
        s_strong = seed_stability(strong, seeds=(1, 2, 3)).mean_similarity
        s_weak = seed_stability(weak, seeds=(1, 2, 3)).mean_similarity
        assert s_strong >= s_weak

    def test_single_seed_degenerate(self):
        g = two_cliques_graph()
        report = seed_stability(g, seeds=(7,))
        assert report.mean_similarity == 1.0
