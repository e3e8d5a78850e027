"""Oracle-equivalence tests for the process engine.

The contract (see :mod:`repro.core.local_move_process`) is *bitwise*
equality: at any worker count, the process engine's membership must equal
the ``batch`` engine's, because each worker computes an exact per-chunk
restriction of the frozen-snapshot batch scan, the parent scans the
batches below the pool gate with the batch engine's own scan, and the
parent applies moves in batch position order.

Every oracle case runs the process engine on both sides of the gate
(:func:`both_sides_of_gate`): once with every batch in the pool, once
with the gate inside the solve's batch sizes, so that both paths run.

Set ``REPRO_FULL_REGISTRY=1`` (the CI cron job does) to sweep every
registry graph instead of the smoke subset.
"""

import os
from functools import partial

import numpy as np
import pytest

from repro.core.config import LeidenConfig
from repro.core.leiden import leiden
from repro.core.local_move import local_move_batch
from repro.core.local_move_process import local_move_process
from repro.datasets.registry import load_graph, registry_names
from repro.observability.recorder import Recorder
from repro.parallel.runtime import Runtime
from repro.types import VERTEX_DTYPE
from tests.conftest import (
    pool_gate,
    random_graph,
    two_cliques_graph,
    wide_exponent_weights,
)

FULL_REGISTRY = os.environ.get("REPRO_FULL_REGISTRY") == "1"

SMOKE_GRAPHS = ("asia_osm", "com-Orkut")


def run_leiden(graph, engine, *, workers=2, seed=42, **cfg_kwargs):
    cfg = LeidenConfig(engine=engine, seed=seed, **cfg_kwargs)
    if engine == "process":
        rt = Runtime(num_threads=workers, executor="process", seed=seed)
    else:
        rt = Runtime(num_threads=1, seed=seed)
    try:
        return leiden(graph, cfg, runtime=rt)
    finally:
        rt.close()


def both_sides_of_gate(solve):
    """``solve()`` (a process-engine run) with the pool gate at 0, then
    with the gate between its smallest and largest batch.

    Asserts that every batch went to the pool in the first run, that the
    second run saw the same batches and split them at the gate, and that
    both paths ran.  Returns the two results.
    """
    with pool_gate(0) as batches:
        pooled = solve()
    sizes = [edges for _, edges in batches]
    assert sizes and all(path == "pool" for path, _ in batches)
    gate = (min(sizes) + max(sizes) + 1) // 2
    assert min(sizes) < gate <= max(sizes)
    with pool_gate(gate) as batches:
        split = solve()
    assert [edges for _, edges in batches] == sizes
    assert all((path == "pool") == (edges >= gate)
               for path, edges in batches)
    assert {path for path, _ in batches} == {"pool", "inline"}
    return pooled, split


class TestKernelEquivalence:
    """local_move_process against local_move_batch, same inputs."""

    @staticmethod
    def _run(graph, which, workers=2, **kwargs):
        n = graph.num_vertices
        C = np.arange(n, dtype=VERTEX_DTYPE)
        K = graph.vertex_weights().copy()
        Sigma = K.copy()
        if which == "batch":
            with Runtime(num_threads=1, seed=1) as rt:
                iters, dq = local_move_batch(
                    graph, C, K, Sigma, 0.01, runtime=rt, **kwargs)
        else:
            with Runtime(num_threads=workers, executor="process",
                         seed=1) as rt:
                iters, dq = local_move_process(
                    graph, C, K, Sigma, 0.01, runtime=rt, **kwargs)
        return C, Sigma, iters, dq

    def _pair(self, graph, workers, **kwargs):
        """The batch run and the process runs on both sides of the gate."""
        oracle = self._run(graph, "batch", **kwargs)
        return oracle, both_sides_of_gate(
            lambda: self._run(graph, "process", workers, **kwargs))

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bitwise_identical_membership(self, workers):
        g = random_graph(n=200, avg_degree=8, seed=3)
        (Cb, Sb, ib, dqb), runs = self._pair(g, workers)
        for Cp, Sp, ip, dqp in runs:
            assert np.array_equal(Cb, Cp)
            assert np.array_equal(Sb, Sp)   # Σ bitwise too, not approx
            assert ib == ip
            assert dqb == dqp

    def test_small_batches_cross_chunk_boundaries(self):
        g = random_graph(n=150, avg_degree=6, seed=9)
        (Cb, _, _, _), runs = self._pair(g, 3, batch_size=17)
        for Cp, _, _, _ in runs:
            assert np.array_equal(Cb, Cp)

    def test_finds_cliques(self):
        with pool_gate(0):
            Cp, _, _, _ = self._run(two_cliques_graph(), "process")
        assert len(np.unique(Cp[:5])) == 1
        assert len(np.unique(Cp[5:])) == 1
        assert Cp[0] != Cp[5]

    def test_records_work_and_pool_tasks(self):
        g = random_graph(n=120, avg_degree=6, seed=5)
        with pool_gate(0), Runtime(num_threads=2, executor="process",
                                   seed=1) as rt:
            n = g.num_vertices
            C = np.arange(n, dtype=VERTEX_DTYPE)
            K = g.vertex_weights().copy()
            local_move_process(g, C, K, K.copy(), 0.01, runtime=rt)
            assert rt.ledger.total_work > 0
            assert rt.procpool().tasks_dispatched > 0

    def test_default_gate_scans_small_graph_inline(self):
        g = random_graph(n=120, avg_degree=6, seed=5)
        metrics = Recorder()
        with Runtime(num_threads=2, executor="process", seed=1,
                     recorder=metrics) as rt:
            n = g.num_vertices
            C = np.arange(n, dtype=VERTEX_DTYPE)
            K = g.vertex_weights().copy()
            local_move_process(g, C, K, K.copy(), 0.01, runtime=rt)
            assert rt.ledger.total_work > 0
            assert rt.procpool().tasks_dispatched == 0
        edges = metrics.families["proc_worker_edges_total"]
        assert edges.series[("parent",)] >= g.num_edges

    def test_worker_edges_fold_into_metrics(self):
        g = random_graph(n=200, avg_degree=8, seed=3)
        with pool_gate(0) as batches:
            self._run(g, "process")
        sizes = sorted(edges for _, edges in batches)
        metrics = Recorder()
        with pool_gate(sizes[len(sizes) // 2]) as batches, Runtime(
                num_threads=2, executor="process", seed=1,
                recorder=metrics) as rt:
            n = g.num_vertices
            C = np.arange(n, dtype=VERTEX_DTYPE)
            K = g.vertex_weights().copy()
            local_move_process(g, C, K, K.copy(), 0.01, runtime=rt)
        edges = metrics.families["proc_worker_edges_total"]
        by_path = {"pool": 0, "inline": 0}
        for path, e in batches:
            by_path[path] += e
        assert by_path["pool"] > 0 and by_path["inline"] > 0
        assert edges.series[("parent",)] == by_path["inline"]
        assert edges.series.get(("0",), 0.0) + edges.series.get(("1",), 0.0) == by_path["pool"]


class TestEndToEndOracle:
    """Full leiden() pipeline: engine="process" vs engine="batch"."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_random_graph_any_worker_count(self, workers):
        g = random_graph(n=180, avg_degree=7, seed=11)
        oracle = run_leiden(g, "batch")
        for got in both_sides_of_gate(
                lambda: run_leiden(g, "process", workers=workers)):
            assert np.array_equal(got.membership, oracle.membership)
            assert got.num_passes == oracle.num_passes

    def test_config_variants(self):
        g = random_graph(n=160, avg_degree=8, seed=2)
        variants = [
            dict(quality="cpm", resolution=0.5),
            dict(vertex_pruning=False),
            dict(batch_size=37),
            dict(use_refinement=False),
            dict(refinement="random"),
        ]
        for kwargs in variants:
            oracle = run_leiden(g, "batch", **kwargs)
            for got in both_sides_of_gate(
                    partial(run_leiden, g, "process", workers=3, **kwargs)):
                assert np.array_equal(got.membership, oracle.membership), \
                    kwargs

    @pytest.mark.parametrize(
        "name",
        sorted(registry_names()) if FULL_REGISTRY else list(SMOKE_GRAPHS))
    def test_registry_graphs(self, name):
        g = load_graph(name, seed=1)
        oracle = run_leiden(g, "batch")
        for got in both_sides_of_gate(
                lambda: run_leiden(g, "process", workers=2)):
            assert np.array_equal(got.membership, oracle.membership)
            assert got.num_communities == oracle.num_communities

    @pytest.mark.parametrize("name", ["asia_osm", "uk-2002"])
    def test_wide_exponent_weights(self, name):
        """Symmetric float32 weights over 16 decades: the pair sums are
        not exact, so equal memberships need the worker chunks to sum
        exactly like the whole batch."""
        g = wide_exponent_weights(load_graph(name, seed=1))
        oracle = run_leiden(g, "batch")
        for got in both_sides_of_gate(
                lambda: run_leiden(g, "process", workers=2)):
            assert np.array_equal(got.membership, oracle.membership)
