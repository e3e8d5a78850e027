"""Smoke tests for the experiment drivers on small graph subsets.

Full-registry runs live in ``benchmarks/``; here each driver is run on
one or two small graphs to validate structure and reporting.
"""


import pytest

from repro.bench.experiments import (
    ext_service_load,
    fig1_fig2_refinement,
    fig3_fig4_supervertex,
    fig6_comparison,
    fig7_splits,
    fig8_rate,
    fig9_scaling,
    sec55_indirect,
    table1_speedup,
    table2_datasets,
)

SMALL = ["asia_osm", "com-Orkut"]


class TestTable2:
    def test_rows(self):
        rows = table2_datasets.run(SMALL)
        assert [r.name for r in rows] == SMALL
        assert all(r.num_communities > 0 for r in rows)
        report = table2_datasets.report(rows)
        assert "asia_osm" in report and "Davg" in report

    def test_fingerprint_column(self):
        from repro.datasets.registry import load_graph

        rows = table2_datasets.run(["asia_osm"])
        assert rows[0].fingerprint == load_graph("asia_osm").fingerprint()
        assert rows[0].fingerprint[:12] in table2_datasets.report(rows)


class TestExtServiceLoad:
    def test_micro_batching_reduces_solves(self):
        result = ext_service_load.run("tiny", seed=0)
        co = result.outcomes["coalesced"]
        un = result.outcomes["uncoalesced"]
        solves_co = ext_service_load._refresh_solves(co.stats)
        solves_un = ext_service_load._refresh_solves(un.stats)
        assert solves_co < solves_un
        assert all(co.membership_matches_scratch.values())
        assert all(un.membership_matches_scratch.values())
        report = ext_service_load.report(result)
        assert "micro-batching saves" in report
        assert "coalesced" in report


class TestFig6AndTable1:
    def test_fig6_structure(self):
        result = fig6_comparison.run(SMALL, ["gve", "networkit"])
        assert result.graphs == SMALL
        speedups = result.speedup_vs("networkit")
        assert set(speedups) == set(SMALL)
        assert all(v > 0 for v in speedups.values())
        report = fig6_comparison.report(result)
        assert "Figure 6(a)" in report and "Figure 6(d)" in report

    def test_oom_shown_in_report(self):
        result = fig6_comparison.run(["sk-2005"], ["gve", "cugraph"])
        assert "OOM" in fig6_comparison.report(result)

    def test_table1(self):
        result = table1_speedup.run(SMALL)
        assert set(result.measured) == {"original", "igraph",
                                        "networkit", "cugraph"}
        assert result.measured["original"] > result.measured["networkit"]
        assert "436" in table1_speedup.report(result)


class TestFig12:
    def test_six_variants(self):
        result = fig1_fig2_refinement.run(["asia_osm"])
        assert len(result.outcomes) == 6
        base = result.outcomes["greedy-default"]
        assert base.mean_relative_runtime(base) == pytest.approx(1.0)
        report = fig1_fig2_refinement.report(result)
        assert "random-heavy" in report


class TestFig34:
    def test_two_labels(self):
        result = fig3_fig4_supervertex.run(["asia_osm"])
        assert result.mean_relative_runtime("move") == pytest.approx(1.0)
        assert 0 < result.mean_quality("refine") <= 1
        assert "move" in fig3_fig4_supervertex.report(result)


class TestFig7:
    def test_splits(self):
        result = fig7_splits.run(SMALL)
        for g in SMALL:
            assert sum(result.phase_fractions[g].values()) == pytest.approx(1.0)
            assert sum(result.pass_fractions[g]) == pytest.approx(1.0)
        mean = result.mean_phase_fractions()
        assert sum(mean.values()) == pytest.approx(1.0)
        assert "Figure 7(a)" in fig7_splits.report(result)


class TestFig8:
    def test_rates(self):
        result = fig8_rate.run(SMALL)
        assert all(v > 0 for v in result.seconds_per_edge.values())
        assert "runtime/|E|" in fig8_rate.report(result)

    def test_road_rate_above_web(self):
        result = fig8_rate.run(["asia_osm", "indochina-2004"])
        assert result.seconds_per_edge["asia_osm"] > \
            result.seconds_per_edge["indochina-2004"]


class TestFig9:
    def test_speedups(self):
        result = fig9_scaling.run(["asia_osm"])
        sp = result.speedups("asia_osm")
        assert sp[1] == pytest.approx(1.0)
        assert sp[64] > sp[2] > 1.0
        per_doubling = result.mean_speedup_per_doubling()
        assert 1.2 < per_doubling < 2.0
        assert "Figure 9" in fig9_scaling.report(result)


class TestSec55:
    def test_estimates(self):
        result = sec55_indirect.run()
        assert result.gve_vs_original > 10
        est = result.estimates
        assert est["KatanaGraph Leiden"] > est["ParLeiden-S"]
        assert "ParLeiden-S" in sec55_indirect.report(result)
