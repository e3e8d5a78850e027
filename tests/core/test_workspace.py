"""Tests for the preallocated kernel workspace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.kernels import scatter_add_compacted
from repro.core import _kernels
from repro.core._kernels import (
    DENSE_GRID_FACTOR,
    compact_keys,
    segment_pair_sums_sort,
    segmented_argmax,
)
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


# -- scatter_add: both branches against the compaction formula -------------


def _branch(idx):
    """The branch :func:`scatter_add` takes for ``idx``."""
    bound = max(DENSE_GRID_FACTOR * idx.shape[0], 1024)
    if int(idx.max()) - int(idx.min()) + 1 <= bound:
        return "window"
    return "compact"


def _wide(rng, size):
    """Signed floats over ~36 decades (sums of them are not exact)."""
    return (rng.choice([-1.0, 1.0], size) * rng.uniform(1.0, 2.0, size)
            * 2.0 ** rng.integers(-60, 61, size))


def _assert_scatter_matches(target, idx, weights):
    """``KernelWorkspace.scatter_add`` against the oracle, bitwise.

    A touched slot must carry the oracle's bits.  An untouched slot may
    read ``+0.0`` where the oracle keeps ``-0.0`` (it got ``+ 0.0``),
    which no comparison or digest tells apart; every other untouched
    slot must keep its bits too.
    """
    got, ref = target.copy(), target.copy()
    KernelWorkspace(target.shape[0]).scatter_add(got, idx, weights)
    scatter_add_compacted(ref, idx, weights)
    same = got.view(np.int64) == ref.view(np.int64)
    touched = np.zeros(target.shape[0], dtype=bool)
    touched[idx] = True
    assert same[touched].all()
    assert (same | (~touched & (got == 0.0) & (ref == 0.0))).all()


@st.composite
def scatter_cases(draw):
    """A target, ids and weights built to reach ``branch``; a window
    may cover a whole target no larger than the bound."""
    branch = draw(st.sampled_from(["window", "compact"]))
    u = draw(st.integers(2 if branch == "compact" else 1, 400))
    bound = max(DENSE_GRID_FACTOR * u, 1024)
    if branch == "window":
        n = draw(st.integers(1, 8 * bound))
        span = draw(st.integers(1, min(n, bound)))
    else:
        n = draw(st.integers(bound + 1, 8 * bound))
        span = draw(st.integers(bound + 1, n))
    lo = draw(st.integers(0, n - span))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # few distinct ids, many repeats
        pool = lo + rng.integers(0, span, int(rng.integers(1, 5)))
        idx = rng.choice(pool, u)
    else:
        idx = lo + rng.integers(0, span, u)
    if u >= 2:
        idx[rng.permutation(u)[:2]] = (lo, lo + span - 1)
    idx = idx.astype(draw(st.sampled_from([np.int32, np.int64])))
    kind = draw(st.sampled_from(["wide", "zeros", "unit"]))
    if kind == "wide":
        weights = _wide(rng, u)
    elif kind == "zeros":
        weights = rng.choice([0.0, -0.0, 1.5, -2.25], u)
    else:
        weights = rng.choice([-1.0, 1.0], u)
    target = _wide(rng, n)
    target[rng.random(n) < 0.2] = -0.0
    target[rng.random(n) < 0.1] = 0.0
    assert _branch(idx) == branch
    return target, idx, weights


class TestScatterAddBranches:
    """The window and compaction branches give the compaction
    formula's bits on every slot an update touches."""

    @settings(max_examples=300, deadline=None)
    @given(scatter_cases())
    def test_matches_compaction_formula(self, case):
        _assert_scatter_matches(*case)

    @pytest.fixture
    def compactions(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return compact_keys(*args, **kwargs)

        monkeypatch.setattr(_kernels, "compact_keys", counting)
        return calls

    @pytest.mark.parametrize("extra, branch", [(0, "window"),
                                               (1, "compact")])
    def test_span_at_the_bound(self, compactions, extra, branch):
        rng = np.random.default_rng(5)
        u = 300
        bound = DENSE_GRID_FACTOR * u
        lo = 50_000
        idx = lo + rng.integers(0, bound + extra, u)
        idx[:2] = (lo, lo + bound - 1 + extra)
        assert _branch(idx) == branch
        target = _wide(rng, 800_000)
        _assert_scatter_matches(target, idx, _wide(rng, u))
        assert len(compactions) == (branch == "compact")

    def test_repeated_single_id(self, compactions):
        rng = np.random.default_rng(6)
        target = _wide(rng, 100_000)
        _assert_scatter_matches(target, np.full(64, 777), _wide(rng, 64))
        assert compactions == []

    def test_single_update(self):
        for n in (1, 5000):
            for i in (0, n - 1):
                target = np.full(n, -0.0)
                _assert_scatter_matches(target, np.array([i]),
                                        np.array([-0.0]))
                _assert_scatter_matches(target, np.array([i]),
                                        np.array([2.5]))

    @pytest.mark.parametrize("n", [1024, 100_000])
    def test_ids_at_both_ends(self, n):
        rng = np.random.default_rng(n)
        idx = np.array([0, n - 1, 0, n - 1, n // 2])
        _assert_scatter_matches(_wide(rng, n), idx, _wide(rng, 5))

    @pytest.mark.parametrize("n, base", [(1600, 0), (800_000, 0),
                                         (800_000, 400_000)])
    def test_zero_and_negative_zero_weights(self, n, base):
        target = np.resize(np.array([-0.0, 0.0, 1.0, -0.0]), n)
        idx = base + np.array([0, 0, 1, 3, 3, 1599])
        w = np.array([-0.0, -0.0, -0.0, 0.0, -0.0, -0.0])
        _assert_scatter_matches(target, idx, w)

    @pytest.mark.parametrize("n, idx", [
        (8, [3, 3, 3, 3, 5]),                      # window, small target
        (100_000, [40_003] * 4 + [40_005]),        # window
        (100_000, [3, 3, 3, 3, 99_999]),           # compaction
    ])
    def test_order_sensitive_sums(self, n, idx):
        """Weights whose sum depends on the order: every branch sums
        each slot's weights in input order, as the oracle does."""
        w = np.array([1e16, 1.0, -1e16, 1.0, 1.0])
        _assert_scatter_matches(np.zeros(n), np.array(idx), w)


# -- segmented_argmax_sorted: one reduction against two, and the lexsort ----


def argmax_two_reductions(seg, values):
    """The two-``reduceat`` argmax: each segment's maximum, then the last
    position attaining it; ``-1`` where a segment's maximum is NaN."""
    num = seg.shape[0]
    if num == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    boundary = np.empty(num, dtype=bool)
    boundary[0] = True
    np.not_equal(seg[1:], seg[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    group_id = np.cumsum(boundary) - 1
    maxima = np.maximum.reduceat(values, starts)
    at_max = np.where(
        values == maxima[group_id], np.arange(num, dtype=np.int64), -1)
    return seg[starts].astype(np.int64), np.maximum.reduceat(at_max, starts)


def _assert_argmax_matches(seg, values, *, lexsort=True):
    got = KernelWorkspace(1).argmax(seg, values)
    oracles = [argmax_two_reductions(seg, values)]
    if lexsort:
        oracles.append(segmented_argmax(seg, values))
    for ref in oracles:
        for g, r in zip(got, ref):
            assert g.dtype == r.dtype
            assert g.tobytes() == r.tobytes()


class TestArgmaxOneReduction:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 30),
                              st.sampled_from([-np.inf, -2.0, -1.0, -0.0,
                                               0.0, 0.5, 1.0, 3.0])),
                    min_size=0, max_size=200))
    def test_matches_both_oracles(self, pairs):
        pairs.sort(key=lambda p: p[0])
        seg = np.array([p[0] for p in pairs], dtype=np.int64)
        values = np.array([p[1] for p in pairs], dtype=np.float64)
        _assert_argmax_matches(seg, values)

    def test_ties_break_to_the_last(self):
        seg = np.array([0, 0, 0, 4, 4, 9])
        values = np.array([2.0, 2.0, 1.0, 7.0, 7.0, 0.0])
        _assert_argmax_matches(seg, values)
        assert KernelWorkspace(1).argmax(seg, values)[1].tolist() == [1, 4, 5]

    def test_negative_infinity_keys(self):
        """Random refinement's keys: ``-inf`` for non-positive ΔQ, so a
        segment may hold nothing else."""
        seg = np.array([0, 0, 1, 1, 1, 2])
        values = np.array([-np.inf, -np.inf, -np.inf, 0.3, -np.inf, -np.inf])
        _assert_argmax_matches(seg, values)
        assert KernelWorkspace(1).argmax(seg, values)[1].tolist() == [1, 3, 5]

    def test_nan_in_one_segment(self):
        seg = np.array([0, 0, 1, 1, 1, 2, 2])
        values = np.array([1.0, 2.0, 0.5, np.nan, 0.7, 3.0, 3.0])
        _assert_argmax_matches(seg, values, lexsort=False)
        assert KernelWorkspace(1).argmax(seg, values)[1].tolist() == [1, -1, 6]

    def test_single_element_segments(self):
        rng = np.random.default_rng(4)
        seg = np.arange(0, 300, 3)
        _assert_argmax_matches(seg, rng.uniform(-1, 1, seg.shape[0]))

    def test_one_segment(self):
        rng = np.random.default_rng(8)
        values = rng.integers(-3, 4, 500).astype(np.float64)
        _assert_argmax_matches(np.full(500, 7), values)

    def test_empty(self):
        e = np.empty(0, dtype=np.int64)
        _assert_argmax_matches(e, np.empty(0))
