"""Tests for the result types and their derived views."""

import numpy as np
import pytest

from repro.core.leiden import leiden
from repro.core.result import ALL_PHASES, PassStats
from repro.parallel.simthread import WorkLedger
from tests.conftest import random_graph


@pytest.fixture(scope="module")
def result():
    return leiden(random_graph(n=120, avg_degree=7, seed=2))


class TestLeidenResult:
    def test_num_passes_matches(self, result):
        assert result.num_passes == len(result.passes)

    def test_num_communities_matches_membership(self, result):
        assert result.num_communities == \
            len(np.unique(result.membership))

    def test_phase_fractions_normalized(self, result):
        fr = result.phase_fractions_wall()
        assert sum(fr.values()) == pytest.approx(1.0)
        assert set(fr) == set(ALL_PHASES)

    def test_pass_fractions_normalized(self, result):
        """The pass split (Figure 7(b)) covers the phase split."""
        total = sum(result.wall_phase_seconds.values())
        fr = [p.wall_seconds / total for p in result.passes]
        assert len(fr) == result.num_passes
        assert sum(fr) == pytest.approx(1.0)

    def test_modeled_time_positive(self, result):
        from repro.parallel.costmodel import PAPER_MACHINE
        sim = result.modeled_time(PAPER_MACHINE, 4)
        assert sim.seconds > 0
        assert sim.num_threads == 4


class TestPassStats:
    def test_wall_seconds_sums_phases(self):
        ps = PassStats(
            index=0, num_vertices=10, num_communities=2,
            move_iterations=3, refine_moves=4, tolerance=0.01,
            wall_phase_seconds={"a": 1.0, "b": 2.0},
            ledger=WorkLedger(),
        )
        assert ps.wall_seconds == pytest.approx(3.0)

    def test_per_pass_ledgers_sum_to_total(self, result):
        per_pass = sum(ps.ledger.total_work for ps in result.passes)
        assert per_pass == pytest.approx(result.ledger.total_work)


class TestHierarchy:
    def test_levels_coarsen(self, result):
        levels = result.hierarchy()
        counts = [len(np.unique(l)) for l in levels]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_last_level_equals_membership(self, result):
        from repro.metrics.comparison import adjusted_rand_index
        last = result.hierarchy()[-1]
        assert adjusted_rand_index(last, result.membership) == pytest.approx(1.0)

    def test_each_level_nests_in_next(self, result):
        levels = result.hierarchy()
        for fine, coarse in zip(levels, levels[1:]):
            for comm in np.unique(fine):
                members = np.flatnonzero(fine == comm)
                assert len(np.unique(coarse[members])) == 1
