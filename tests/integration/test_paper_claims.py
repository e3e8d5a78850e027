"""The paper's qualitative claims, checked end-to-end at test scale.

Each test encodes one sentence from the evaluation section; the full
registry-scale versions live in ``benchmarks/``.
"""

import pytest

from repro.baselines import IMPLEMENTATIONS
from repro.bench.harness import run_leiden_config, run_once
from repro.core.config import LeidenConfig
from repro.datasets.registry import load_graph
from repro.metrics.modularity import modularity

WEB = "indochina-2004"
ROAD = "asia_osm"
SOCIAL = "com-Orkut"


class TestHeadlineOrdering:
    """'GVE-Leiden outperforms original, igraph, NetworKit and cuGraph.'"""

    def test_gve_fastest_modeled(self):
        recs = {i: run_once(i, ROAD, seed=42)
                for i in ("gve", "original", "igraph", "networkit", "cugraph")}
        gve = recs.pop("gve")
        for name, rec in recs.items():
            assert rec.modeled_seconds > gve.modeled_seconds, name

    def test_sequential_slower_than_parallel(self):
        orig = run_once("original", ROAD, seed=42)
        nk = run_once("networkit", ROAD, seed=42)
        assert orig.modeled_seconds > nk.modeled_seconds


class TestQualityClaims:
    """'GVE-Leiden obtains ~equal modularity to original/igraph, higher
    than NetworKit; no disconnected communities.'"""

    @pytest.mark.parametrize("graph", [WEB, ROAD])
    def test_quality_matches_sequential_reference(self, graph):
        gve = run_once("gve", graph, seed=42)
        orig = run_once("original", graph, seed=42)
        assert gve.modularity > orig.modularity - 0.01

    def test_networkit_worse_on_road(self):
        gve = run_once("gve", ROAD, seed=42)
        nk = run_once("networkit", ROAD, seed=42)
        assert nk.modularity < gve.modularity - 0.1

    @pytest.mark.parametrize("impl", ["gve", "original", "igraph"])
    def test_guaranteed_implementations_zero_disconnected(self, impl):
        rec = run_once(impl, ROAD, seed=42)
        assert rec.disconnected_fraction == 0.0


class TestGreedyVsRandom:
    """'The greedy approach performs the best on average, both in terms
    of runtime and modularity' (Figures 1-2)."""

    def test_greedy_not_slower_and_not_worse(self):
        g = load_graph(WEB)
        impl = IMPLEMENTATIONS["gve"]
        greedy, _ = run_leiden_config(WEB, LeidenConfig(refinement="greedy"))
        random_, _ = run_leiden_config(WEB, LeidenConfig(refinement="random"))
        tg = impl.modeled_seconds(greedy, scale=1000.0)
        tr = impl.modeled_seconds(random_, scale=1000.0)
        qg = modularity(g, greedy.membership)
        qr = modularity(g, random_.membership)
        assert tg <= tr * 1.1
        assert qg >= qr - 0.01


class TestMoveVsRefineLabels:
    """'Both approaches have roughly the same runtime and modularity'
    (Figures 3-4)."""

    def test_roughly_equal(self):
        g = load_graph(SOCIAL)
        move, _ = run_leiden_config(SOCIAL, LeidenConfig(vertex_label="move"))
        refine, _ = run_leiden_config(SOCIAL,
                                      LeidenConfig(vertex_label="refine"))
        qm = modularity(g, move.membership)
        qr = modularity(g, refine.membership)
        assert abs(qm - qr) < 0.05


class TestLowDegreeCost:
    """'Graphs with lower average degree exhibit a higher runtime/|E|
    factor' (Figure 8)."""

    def test_road_costlier_per_edge_than_web(self):
        road = run_once("gve", ROAD, seed=42)
        web = run_once("gve", WEB, seed=42)
        from repro.datasets.registry import graph_spec
        road_rate = road.modeled_seconds / graph_spec(ROAD).paper_edges
        web_rate = web.modeled_seconds / graph_spec(WEB).paper_edges
        assert road_rate > web_rate
