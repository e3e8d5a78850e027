"""Tests for the preallocated kernel workspace."""

import numpy as np

from repro.core._kernels import segment_pair_sums_sort, segmented_argmax
from repro.core.workspace import KernelWorkspace
from repro.parallel.runtime import Runtime


class TestConstruction:
    def test_zero_vertices_allowed(self):
        ws = KernelWorkspace(0)
        assert ws._map.shape[0] >= 1

    def test_map_covers_vertex_domain(self):
        ws = KernelWorkspace(123)
        assert ws._map.shape == (123,)
        assert ws._map.dtype == np.int64


class TestAllocationAccounting:
    def test_allocation_recorded_in_ledger(self):
        rt = Runtime(num_threads=1, seed=0)
        before = rt.ledger.total_work
        KernelWorkspace(10_000, runtime=rt, phase="other")
        assert rt.ledger.total_work > before

    def test_allocation_cost_scales_with_vertices(self):
        costs = []
        for n in (1_000, 100_000):
            rt = Runtime(num_threads=1, seed=0)
            base = rt.ledger.total_work
            KernelWorkspace(n, runtime=rt)
            costs.append(rt.ledger.total_work - base)
        assert costs[1] > costs[0] * 50

    def test_no_runtime_no_accounting(self):
        # Just must not raise.
        KernelWorkspace(100)

    def test_memory_ledger_records_owned_map(self):
        from repro.observability.memtrack import MemoryLedger

        led = MemoryLedger()
        rt = Runtime(num_threads=1, seed=0, memory=led)
        ws = KernelWorkspace(10_000, runtime=rt, phase="local_move")
        assert led.live_bytes("workspace") == ws._map.nbytes
        assert led.phase_peak_bytes("local_move") == ws._map.nbytes
        assert ws._mem_handle >= 0

    def test_zero_slot_workspace_charges_one_slot(self):
        """The map is never empty (max(nv, 1) slots): the ledger event
        and the cost-model charge both cover exactly that one slot."""
        from repro.observability.memtrack import MemoryLedger

        led = MemoryLedger()
        rt = Runtime(num_threads=1, seed=0, memory=led)
        base = rt.ledger.total_work
        ws = KernelWorkspace(0, runtime=rt)
        assert ws._map.shape[0] == 1
        assert led.live_bytes("workspace") == 8  # one int64 slot
        assert led.to_snapshot()["logical"]["components"][
            "workspace"]["allocs"] == 1
        assert rt.ledger.total_work > base


class TestLedgerInvariance:
    """The logical memory report must not depend on hash seeding or on
    the worker count — the two classic sources of run-to-run drift."""

    @staticmethod
    def _logical_doc(workers: int, hashseed: str) -> dict:
        import json
        import os
        import subprocess
        import sys

        code = (
            "import json\n"
            "from repro.core.config import LeidenConfig\n"
            "from repro.core.leiden import leiden\n"
            "from repro.datasets.registry import load_graph\n"
            "from repro.observability.memtrack import MemoryLedger, "
            "record_csr\n"
            "from repro.parallel.runtime import Runtime\n"
            "g = load_graph('asia_osm')\n"
            "led = MemoryLedger()\n"
            "record_csr(led, g)\n"
            f"with Runtime(num_threads={workers}, executor='process', "
            "seed=42, memory=led) as rt:\n"
            "    leiden(g, LeidenConfig(engine='process', seed=42), "
            "runtime=rt)\n"
            "print(json.dumps(led.to_snapshot()['logical'], "
            "sort_keys=True))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, text=True,
            capture_output=True, check=True, timeout=300)
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_logical_report_invariant_to_workers_and_hashseed(self):
        docs = [self._logical_doc(w, hs)
                for w in (1, 4) for hs in ("0", "1")]
        assert docs[0]["clock"] > 0
        assert all(d == docs[0] for d in docs[1:])


class TestDispatch:
    def _case(self, seed=0, size=200):
        rng = np.random.default_rng(seed)
        seg = np.sort(rng.integers(0, 12, size))
        comm = rng.integers(0, 30, size)
        w = rng.uniform(0, 2, size).astype(np.float32)
        return seg, comm, w

    def test_pair_sums_matches_sort_reference(self):
        seg, comm, w = self._case()
        ws = KernelWorkspace(30)
        got = ws.pair_sums(seg, comm, w, 12)
        ref = segment_pair_sums_sort(seg, comm, w, 30)
        for g, r in zip(got, ref):
            assert np.array_equal(g, r)

    def test_argmax_matches_lexsort_reference(self):
        rng = np.random.default_rng(3)
        seg = np.sort(rng.integers(0, 9, 120))
        vals = rng.integers(-2, 3, 120).astype(np.float64)
        ws = KernelWorkspace(20)
        gs, gi = ws.argmax(seg, vals)
        rs, ri = segmented_argmax(seg, vals)
        assert np.array_equal(gs, rs)
        assert np.array_equal(gi, ri)

    def test_scatter_add_matches_add_at(self):
        rng = np.random.default_rng(7)
        target = rng.uniform(0, 1, 25)
        expected = target.copy()
        idx = rng.integers(0, 25, 80)
        w = rng.uniform(-1, 1, 80)
        np.add.at(expected, idx, w)
        KernelWorkspace(25).scatter_add(target, idx, w)
        assert np.allclose(target, expected)

    def test_workspace_reusable_across_batches(self):
        """One workspace, many calls — the per-pass reuse pattern."""
        ws = KernelWorkspace(50)
        for seed in range(8):
            seg, comm, w = self._case(seed=seed, size=150)
            comm = comm % 50
            got = ws.pair_sums(seg, comm, w, 12)
            ref = segment_pair_sums_sort(seg, comm, w, 50)
            for g, r in zip(got, ref):
                assert np.array_equal(g, r)
