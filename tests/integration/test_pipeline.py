"""End-to-end integration: generators -> Leiden -> metrics, all families.

These tests run the full pipeline the way the benchmark harness does,
across every dataset family and every engine/refinement combination, and
check the paper's cross-cutting claims at small scale.
"""

import numpy as np
import pytest

from repro.core.config import LeidenConfig
from repro.core.leiden import leiden
from repro.core.louvain import louvain
from repro.datasets.geometric import road_network
from repro.datasets.kmer import kmer_graph
from repro.datasets.lfr import lfr_like_graph
from repro.datasets.rmat import rmat_graph
from repro.datasets.sbm import stochastic_block_model
from repro.metrics.connectivity import disconnected_communities
from repro.metrics.modularity import modularity
from repro.parallel.runtime import Runtime


def family_graphs():
    web, _ = lfr_like_graph(400, avg_degree=12, mixing=0.08,
                            min_community=30, seed=11)
    social, _ = stochastic_block_model([60] * 5, intra_degree=14,
                                       mixing=0.4, seed=12)
    road, _ = road_network(10, 40, seed=13)
    kmer = kmer_graph(20, 20, seed=14)
    rmat = rmat_graph(8, 8.0, seed=15)
    return {
        "web": web, "social": social, "road": road,
        "kmer": kmer, "rmat": rmat,
    }


GRAPHS = family_graphs()


@pytest.mark.parametrize("family", sorted(GRAPHS))
class TestEveryFamily:
    def test_leiden_quality_and_connectivity(self, family):
        g = GRAPHS[family]
        res = leiden(g)
        q = modularity(g, res.membership)
        assert q > 0.2, f"{family}: Q={q}"
        report = disconnected_communities(g, res.membership)
        assert report.num_disconnected == 0

    def test_louvain_runs(self, family):
        g = GRAPHS[family]
        res = louvain(g)
        assert modularity(g, res.membership) > 0.15

    def test_all_variant_configs(self, family):
        g = GRAPHS[family]
        for variant in ("default", "medium", "heavy"):
            for refinement in ("greedy", "random"):
                cfg = LeidenConfig.variant(variant, refinement=refinement,
                                           seed=7)
                res = leiden(g, cfg)
                assert res.num_communities >= 1
                assert disconnected_communities(
                    g, res.membership
                ).num_disconnected == 0, (family, variant, refinement)


class TestEngineEquivalence:
    """Batch and loop engines implement the same algorithm."""

    @pytest.mark.parametrize("family", ["social", "road"])
    def test_comparable_quality(self, family):
        g = GRAPHS[family]
        qb = modularity(g, leiden(g, LeidenConfig(engine="batch")).membership)
        ql = modularity(g, leiden(g, LeidenConfig(engine="loop")).membership)
        assert abs(qb - ql) < 0.08, (family, qb, ql)

    def test_loop_engine_no_disconnected(self):
        g = GRAPHS["social"]
        res = leiden(g, LeidenConfig(engine="loop"))
        assert disconnected_communities(
            g, res.membership
        ).num_disconnected == 0


class TestRuntimeIntegration:
    def test_shared_runtime_accumulates_ledger(self):
        g = GRAPHS["road"]
        rt = Runtime(num_threads=2)
        leiden(g, runtime=rt)
        first = rt.ledger.total_work
        leiden(g, runtime=rt)
        assert rt.ledger.total_work > first


class TestFileRoundtripPipeline:
    def test_write_detect_reload(self, tmp_path):
        from repro.graph.io_mtx import read_mtx, write_mtx
        g = GRAPHS["web"]
        p = tmp_path / "web.mtx"
        write_mtx(g, p)
        g2 = read_mtx(p, symmetrize=False)
        res1 = leiden(g, LeidenConfig(seed=1))
        res2 = leiden(g2, LeidenConfig(seed=1))
        assert np.array_equal(res1.membership, res2.membership)
