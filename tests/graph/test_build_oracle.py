"""The packed-key CSR build against the lexsort/argsort formula, bit for bit.

Every CSR built from an edge list takes its rows from one sort of packed
``(source, target, input position)`` keys (:func:`repro.graph.ops.
group_edges`).  These tests compare it with the formula it replaced,
kept as the oracle (:func:`repro.bench.kernels.build_csr_sort`), over
every coalesce mode × ``symmetrize`` × ``drop_self_loops``, on random
edge lists with duplicates and self-loops, on ±0.0 and wide-exponent
weights, on empty input and isolated tail vertices, and through the
>63-bit fallback.  A tracemalloc bound keeps the build's transient
small.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dynamic.batch as batch_module
import repro.graph.ops as ops
from repro.bench.kernels import build_csr_sort
from repro.datasets.registry import load_graph
from repro.dynamic.batch import apply_batch, random_batch
from repro.graph.builder import build_csr_from_edges
from repro.graph.csr import CSRGraph
from repro.graph.ops import coalesce_edges, group_edges_sort
from repro.types import VERTEX_DTYPE, WEIGHT_DTYPE
from tests.conftest import signed_zero_weights, wide_exponent_weights

MODES = ("sum", "max", "first", None)


def _csr_bytes(g: CSRGraph):
    return tuple((a.dtype.str, a.tobytes())
                 for a in (g.offsets, g.targets, g.weights, g.degrees))


def _same_bits(a, b) -> bool:
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
               for x, y in zip(a, b))


def _assert_all_modes(src, dst, wgt, num_vertices=None):
    for coalesce in MODES:
        for symmetrize in (True, False):
            for drop in (True, False):
                kwargs = dict(num_vertices=num_vertices, coalesce=coalesce,
                              symmetrize=symmetrize, drop_self_loops=drop)
                got = build_csr_from_edges(src, dst, wgt, **kwargs)
                ref = build_csr_sort(src, dst, wgt, **kwargs)
                assert _csr_bytes(got) == _csr_bytes(ref), kwargs


def _weights(kind: str, m: int, rng) -> np.ndarray | None:
    if kind == "unit":
        return None
    if kind == "integer":
        return rng.integers(0, 4, m).astype(WEIGHT_DTYPE)
    if kind == "signed-zero":
        w = rng.uniform(0.5, 3.0, m)
        pick = rng.integers(0, 3, m)
        w[pick == 0] = 0.0
        w[pick == 1] = -0.0
        return w.astype(WEIGHT_DTYPE)
    # Both signs over 40 decades: sums whose bits depend on the order.
    return (rng.choice([-1.0, 1.0], m) * rng.uniform(1.0, 2.0, m)
            * 10.0 ** rng.uniform(-20, 20, m)).astype(WEIGHT_DTYPE)


@st.composite
def edge_lists(draw):
    """Random edge lists with duplicates, self-loops and idle tails.

    Ids are drawn from few vertices (many parallel edges and loops) or
    many; the edge count is often 0, 1 or ``2^k``, where the position
    field's width steps; ``num_vertices`` is inferred or leaves
    isolated vertices after the largest id.
    """
    k = draw(st.integers(0, 8))
    m = draw(st.sampled_from([0, 1, 2 ** k, 2 ** k + 1]) | st.integers(0, 300))
    n = draw(st.sampled_from([1, 2, 3]) | st.integers(1, 80))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m).astype(VERTEX_DTYPE)
    dst = rng.integers(0, n, m).astype(VERTEX_DTYPE)
    if m and draw(st.booleans()):
        loops = rng.random(m) < 0.3
        dst[loops] = src[loops]
    kind = draw(st.sampled_from(["unit", "integer", "signed-zero", "wide"]))
    tail = draw(st.sampled_from([None, 0, 1, 5]))
    num_vertices = None if tail is None else n + tail
    return src, dst, _weights(kind, m, rng), num_vertices


class TestPackedBuildOracle:
    @settings(max_examples=150, deadline=None)
    @given(edge_lists())
    def test_every_mode_matches_the_oracle(self, case):
        src, dst, wgt, num_vertices = case
        _assert_all_modes(src, dst, wgt, num_vertices)

    @settings(max_examples=60, deadline=None)
    @given(edge_lists())
    def test_from_coo_keeps_each_row_in_input_order(self, case):
        src, dst, wgt, num_vertices = case
        got = CSRGraph.from_coo(src, dst, wgt, num_vertices=num_vertices)
        ref = build_csr_sort(src, dst, wgt, num_vertices=num_vertices,
                             symmetrize=False, coalesce=None)
        assert _csr_bytes(got) == _csr_bytes(ref)

    @settings(max_examples=60, deadline=None)
    @given(edge_lists(), st.sampled_from(["sum", "max", "first"]))
    def test_coalesce_edges_matches_the_oracle(self, case, reduce):
        src, dst, wgt, _ = case
        got = coalesce_edges(src, dst, wgt, reduce=reduce)
        ref = group_edges_sort(src, dst, wgt, reduce=reduce)
        assert _same_bits(got, ref)

    def test_empty_input(self):
        empty = np.empty(0, dtype=VERTEX_DTYPE)
        for weights in (None, np.empty(0, dtype=WEIGHT_DTYPE)):
            _assert_all_modes(empty, empty, weights)
            _assert_all_modes(empty, empty, weights, num_vertices=4)

    def test_isolated_tail_vertices(self):
        g = build_csr_from_edges([0, 1], [1, 2], num_vertices=6)
        assert g.offsets.tolist() == [0, 1, 3, 4, 4, 4, 4]
        _assert_all_modes(np.array([0, 1]), np.array([1, 2]), None, 6)

    @pytest.mark.parametrize("weigh", [wide_exponent_weights,
                                       signed_zero_weights],
                             ids=["wide-exponent", "signed-zero"])
    @pytest.mark.parametrize("name", ["uk-2002", "asia_osm", "com-Orkut"])
    def test_registry_edge_lists(self, name, weigh):
        """A registry graph's edges in random order, each once, plus the
        reverse of a fifth of them: parallel edges to merge."""
        graph = weigh(load_graph(name))
        src, dst, w = graph.to_coo()
        fwd = src <= dst
        src, dst, w = src[fwd], dst[fwd], w[fwd]
        rng = np.random.default_rng(3)
        dup = rng.random(src.shape[0]) < 0.2
        order = rng.permutation(src.shape[0] + int(dup.sum()))
        src, dst, w = (np.concatenate([src, dst[dup]])[order],
                       np.concatenate([dst, src[dup]])[order],
                       np.concatenate([w, w[dup]])[order])
        _assert_all_modes(src, dst, w)
        _assert_all_modes(src, dst, None, graph.num_vertices + 3)

    @pytest.mark.parametrize("name", ["uk-2002", "com-LiveJournal"])
    def test_apply_batch_matches_the_oracle(self, monkeypatch, name):
        graph = wide_exponent_weights(load_graph(name))
        batch = random_batch(graph, num_insertions=300, num_deletions=300,
                             seed=4)
        got = apply_batch(graph, batch)
        monkeypatch.setattr(batch_module, "build_csr_from_edges",
                            build_csr_sort)
        assert _csr_bytes(got) == _csr_bytes(apply_batch(graph, batch))


class TestWideKeyFallback:
    """Keys of more than 63 bits take the lexsort/argsort formula.

    Ids near 2^31 need 31 bits each, so any position field overflows
    the key; ``coalesce_edges`` builds no vertex-sized array, so the
    fallback runs without allocating 2^31 of anything."""

    def _case(self, weighted: bool):
        rng = np.random.default_rng(9)
        ids = np.array([0, 7, 2 ** 30, 2 ** 31 - 2, 2 ** 31 - 1],
                       dtype=VERTEX_DTYPE)
        src = ids[rng.integers(0, ids.shape[0], 40)]
        dst = ids[rng.integers(0, ids.shape[0], 40)]
        w = _weights("wide", 40, rng) if weighted else None
        return ids, src, dst, w

    @pytest.mark.parametrize("reduce", ["sum", "max", "first"])
    def test_falls_back_and_matches_packed_on_ranked_ids(
            self, monkeypatch, reduce):
        ids, src, dst, w = self._case(weighted=True)
        calls = []
        real = ops.group_edges_sort

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(ops, "group_edges_sort", spy)
        got = coalesce_edges(src, dst, w, reduce=reduce)
        assert len(calls) == 1
        # The same edges on ids 0..4 (same order) take the packed path.
        rank = np.searchsorted(ids, src), np.searchsorted(ids, dst)
        small = coalesce_edges(*rank, w, reduce=reduce)
        assert len(calls) == 1
        assert _same_bits(got, (ids[small[0]], ids[small[1]], small[2]))

    def test_unit_weights_fit_without_a_position_field(self, monkeypatch):
        # 2 x 31 id bits and no position field: 62 bits, the packed path.
        _, src, dst, _ = self._case(weighted=False)
        monkeypatch.setattr(ops, "group_edges_sort", None)
        got = coalesce_edges(src, dst)
        monkeypatch.undo()
        assert _same_bits(got, group_edges_sort(src, dst, None))

    def test_exactly_63_bits_stays_packed(self, monkeypatch):
        # 2 x 30 id bits + 3 position bits (8 edges).
        src = np.array([2 ** 30 - 1, 0, 5, 0, 5, 2 ** 30 - 1, 1, 0],
                       dtype=VERTEX_DTYPE)
        dst = src[::-1].copy()
        w = np.arange(8, dtype=WEIGHT_DTYPE)
        monkeypatch.setattr(ops, "group_edges_sort", None)
        got = coalesce_edges(src, dst, w)
        monkeypatch.undo()
        assert _same_bits(got, group_edges_sort(src, dst, w))


class TestBuildMemory:
    """The build's transient, beside the CSR it produces.

    The lexsort/argsort build of a 220k-edge random edge list peaked at
    6.6x the CSR's bytes (symmetrized copies, the lexsort's index and
    gathered copies, the float64 weights, then a second argsort).  One
    sort of packed keys reads 4.1x, and 2.9x without weights."""

    def _peak_ratio(self, weighted: bool) -> float:
        rng = np.random.default_rng(5)
        m, n = 220_000, 50_000
        src = rng.integers(0, n, m).astype(VERTEX_DTYPE)
        dst = rng.integers(0, n, m).astype(VERTEX_DTYPE)
        w = rng.uniform(0.5, 2.0, m).astype(WEIGHT_DTYPE) if weighted else None
        tracemalloc.start()
        try:
            g = build_csr_from_edges(src, dst, w, num_vertices=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        csr = sum(a.nbytes for a in (g.offsets, g.targets, g.weights,
                                     g.degrees))
        return peak / csr

    def test_unit_weights(self):
        assert self._peak_ratio(weighted=False) < 3.5

    def test_weights(self):
        assert self._peak_ratio(weighted=True) < 4.75
