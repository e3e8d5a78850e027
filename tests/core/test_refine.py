"""Tests for the refinement phase (both engines, all guards).

Set ``REPRO_FULL_REGISTRY=1`` (the CI cron job does) to compare whole
solves against the sequential commit on every registry graph instead of
the smoke subset.
"""

import os
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import refine
from repro.core.config import LeidenConfig
from repro.core.leiden import leiden
from repro.core.refine import refine_batch, refine_loop
from repro.datasets.registry import load_graph, registry_names
from repro.metrics.connectivity import disconnected_communities
from repro.observability.metrics import MetricsRegistry
from repro.parallel.rng import Xorshift32
from repro.parallel.runtime import Runtime
from repro.types import VERTEX_DTYPE
from tests.conftest import (
    path_graph,
    random_graph,
    sequential_commit,
    two_cliques_graph,
)

FULL_REGISTRY = os.environ.get("REPRO_FULL_REGISTRY") == "1"

ORACLE_GRAPHS = ("asia_osm", "com-Orkut", "kmer_V1r", "uk-2002")


def run_refine(graph, engine, bounds=None, refinement="greedy", **kwargs):
    n = graph.num_vertices
    CB = (np.zeros(n, dtype=VERTEX_DTYPE) if bounds is None
          else np.asarray(bounds, dtype=VERTEX_DTYPE))
    C = np.arange(n, dtype=VERTEX_DTYPE)
    K = graph.vertex_weights().copy()
    Sigma = K.copy()
    rt = Runtime(seed=5)
    fn = refine_batch if engine == "batch" else refine_loop
    moves = fn(graph, CB, C, K, Sigma, runtime=rt,
               rng=Xorshift32(9), refinement=refinement, **kwargs)
    return C, Sigma, moves, rt


@pytest.mark.parametrize("engine", ["batch", "loop"])
class TestBothEngines:
    def test_merges_within_single_bound(self, engine):
        g = path_graph(20)
        C, _, moves, _ = run_refine(g, engine)
        assert moves > 0
        assert len(np.unique(C)) < 20

    def test_respects_bounds(self, engine):
        g = two_cliques_graph()
        bounds = np.array([0] * 5 + [1] * 5, dtype=VERTEX_DTYPE)
        C, _, _, _ = run_refine(g, engine, bounds=bounds)
        # no refined sub-community may span the two bounds
        for comm in np.unique(C):
            members = np.flatnonzero(C == comm)
            assert len(np.unique(bounds[members])) == 1

    def test_sigma_consistent(self, engine):
        g = random_graph(n=50, avg_degree=6, seed=1)
        C, Sigma, _, _ = run_refine(g, engine)
        expect = np.bincount(C, weights=g.vertex_weights(),
                             minlength=g.num_vertices)
        assert Sigma == pytest.approx(expect)

    def test_isolated_only_guarantee(self, engine):
        """Once a sub-community has >= 2 members nobody leaves it, so the
        refined sub-communities are internally connected."""
        g = random_graph(n=60, avg_degree=5, seed=4)
        C, _, _, _ = run_refine(g, engine)
        report = disconnected_communities(g, C)
        assert report.num_disconnected == 0

    def test_random_refinement_merges(self, engine):
        g = path_graph(30)
        C, _, moves, _ = run_refine(g, engine, refinement="random")
        assert moves > 0
        report = disconnected_communities(g, C)
        assert report.num_disconnected == 0

    def test_empty_graph(self, engine):
        from repro.graph.csr import empty_csr
        g = empty_csr(0)
        fn = refine_batch if engine == "batch" else refine_loop
        moves = fn(g, np.empty(0, dtype=VERTEX_DTYPE),
                   np.empty(0, dtype=VERTEX_DTYPE),
                   np.empty(0), np.empty(0), runtime=Runtime())
        assert moves == 0

    def test_records_work(self, engine):
        g = path_graph(10)
        _, _, _, rt = run_refine(g, engine)
        assert "refine" in rt.ledger.phases()


class TestCasSemantics:
    def test_pairs_form_on_path(self):
        """Sequential CAS on a path yields pairwise merges."""
        g = path_graph(8)
        C, _, moves, _ = run_refine(g, "loop")
        assert moves == 4
        sizes = np.bincount(C)
        assert sorted(sizes[sizes > 0].tolist()) == [2, 2, 2, 2]

    def test_batch_matches_loop_on_path(self):
        g = path_graph(8)
        Cb, _, mb, _ = run_refine(g, "batch")
        Cl, _, ml, _ = run_refine(g, "loop")
        assert np.array_equal(Cb, Cl)
        assert mb == ml

    def test_joined_community_members_stay(self):
        """After refinement every non-singleton sub-community's members
        are mutually reachable through intra-community edges."""
        g = random_graph(n=100, avg_degree=4, seed=8)
        C, _, _, _ = run_refine(g, "batch", batch_size=8)
        report = disconnected_communities(g, C)
        assert report.num_disconnected == 0


class TestGuards:
    def test_none_guard_moves_more(self):
        g = random_graph(n=80, avg_degree=6, seed=2)
        _, _, moves_cas, _ = run_refine(g, "batch", guard="cas")
        _, _, moves_none, _ = run_refine(g, "batch", guard="none")
        assert moves_none >= moves_cas

    def test_bad_guard_rejected(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            run_refine(g, "batch", guard="strict")

    def test_racy_guard_close_to_cas_quality(self):
        g = random_graph(n=100, avg_degree=6, seed=3)
        C_cas, _, _, _ = run_refine(g, "batch", guard="cas")
        C_racy, _, _, _ = run_refine(g, "batch", guard="racy")
        # racy merges nearly as much; community counts are close
        assert abs(len(np.unique(C_cas)) - len(np.unique(C_racy))) <= 10


#: Round cutoffs that run rounds on every batch and leave a tail, so small
#: graphs exercise the vectorized commit too.
EAGER_CUTOFFS = {"ROUND_MIN_MOVERS": 1, "ROUND_MIN_UNDECIDED": 16}


@contextmanager
def commit_cutoffs(eager: bool):
    """Production or eager round cutoffs inside the block; yields a list
    with one entry per batch the rounds decided."""
    rounds = []
    original = refine._commit_rounds

    def counted(*args):
        out = original(*args)
        if out is not None:
            rounds.append(out.shape[0])
        return out

    with pytest.MonkeyPatch.context() as mp:
        for name, value in (EAGER_CUTOFFS.items() if eager else ()):
            mp.setattr(refine, name, value)
        mp.setattr(refine, "_commit_rounds", counted)
        yield rounds


class TestSequentialCommitOracle:
    """``refine_batch`` and whole solves are bitwise equal under the
    vectorized commit and under the one-at-a-time loop."""

    GRAPHS = {
        "path": lambda: path_graph(65536),
        "kmer_V1r": lambda: load_graph("kmer_V1r", seed=1),
        "random": lambda: random_graph(n=20000, avg_degree=4, seed=6),
    }

    @pytest.mark.parametrize("guard", ["cas", "racy"])
    @pytest.mark.parametrize("refinement", ["greedy", "random"])
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_refine_batch(self, name, guard, refinement):
        graph = self.GRAPHS[name]()
        with sequential_commit() as calls:
            c0, s0, m0, rt0 = run_refine(graph, "batch", guard=guard,
                                         refinement=refinement)
        assert calls["commit"] > 0
        for eager in (False, True):
            with commit_cutoffs(eager) as rounds:
                c, s, m, rt = run_refine(graph, "batch", guard=guard,
                                         refinement=refinement)
            assert rounds
            assert np.array_equal(c, c0)
            assert np.array_equal(s, s0)  # Σ, bit for bit
            assert m == m0
            assert rt.ledger.total_work == rt0.ledger.total_work

    @pytest.mark.parametrize(
        "name", sorted(registry_names()) if FULL_REGISTRY else ORACLE_GRAPHS)
    def test_solve(self, name):
        graph = load_graph(name, seed=1)
        for guard in ("cas", "racy"):
            for refinement in ("greedy", "random"):
                cfg = LeidenConfig(refine_guard=guard, refinement=refinement)
                with sequential_commit() as calls:
                    want = _solve(graph, cfg)
                assert calls["commit"] > 0
                for eager in (False, True):
                    with commit_cutoffs(eager) as rounds:
                        got = _solve(graph, cfg)
                    assert rounds or not eager
                    _assert_same_solve(got, want)


def _solve(graph, cfg):
    metrics = MetricsRegistry()
    result = leiden(graph, cfg, runtime=Runtime(seed=cfg.seed,
                                                metrics=metrics))
    return result, metrics.to_json()


def _assert_same_solve(got, want):
    (r1, m1), (r2, m2) = got, want
    assert np.array_equal(r1.membership, r2.membership)
    assert r1.dendrogram.num_levels == r2.dendrogram.num_levels
    for a, b in zip(r1.dendrogram, r2.dendrogram):
        assert np.array_equal(a, b)
    assert [_stats(p) for p in r1.passes] == [_stats(p) for p in r2.passes]
    assert r1.ledger.total_work == r2.ledger.total_work
    assert m1 == m2  # refine moves, CAS rejects, kernel dispatches, ...


def _stats(p):
    return (p.index, p.num_vertices, p.num_communities, p.move_iterations,
            p.refine_moves, p.tolerance, p.ledger.total_work)
