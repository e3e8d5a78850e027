"""Tests for the parallel graph coloring.

Set ``REPRO_FULL_REGISTRY=1`` (the CI cron job does) to check the
coloring against the reference on every registry graph instead of the
smoke subset.
"""

import hashlib
import os

import numpy as np
import pytest

from repro.core.aggregate import aggregate_batch
from repro.datasets.lfr import lfr_like_graph
from repro.datasets.registry import load_graph, registry_names
from repro.graph.builder import build_csr_from_edges
from repro.graph.csr import empty_csr
from repro.metrics.partition import renumber_membership
from repro.parallel.coloring import color_classes, color_graph, verify_coloring
from repro.parallel.runtime import Runtime
from tests.conftest import random_graph

FULL_REGISTRY = os.environ.get("REPRO_FULL_REGISTRY") == "1"

SMOKE_GRAPHS = ("asia_osm", "com-Orkut")


class TestColoring:
    def test_path_is_properly_colored(self, path10):
        colors = color_graph(path10)
        assert verify_coloring(path10, colors)

    def test_path_uses_few_colors(self, path10):
        colors = color_graph(path10)
        assert colors.max() <= 4  # chromatic number 2; greedy stays small

    def test_clique_needs_n_colors(self):
        n = 6
        src, dst = zip(*[(i, j) for i in range(n) for j in range(i + 1, n)])
        g = build_csr_from_edges(src, dst)
        colors = color_graph(g)
        assert verify_coloring(g, colors)
        assert len(np.unique(colors)) == n

    def test_star_few_colors(self, star8):
        # Chromatic number is 2; the MIS rounds may spend one extra color
        # on the spokes that lost the first round to the hub.
        colors = color_graph(star8)
        assert verify_coloring(star8, colors)
        assert len(np.unique(colors)) <= 3

    def test_random_graphs_proper(self):
        for seed in range(5):
            g = random_graph(n=80, avg_degree=8, seed=seed)
            colors = color_graph(g, seed=seed)
            assert verify_coloring(g, colors), f"seed {seed}"

    def test_self_loops_ignored(self):
        g = build_csr_from_edges([0, 0], [0, 1])
        colors = color_graph(g)
        assert verify_coloring(g, colors)

    def test_deterministic(self, small_random):
        a = color_graph(small_random, seed=3)
        b = color_graph(small_random, seed=3)
        assert np.array_equal(a, b)

    def test_empty_graph(self):
        assert color_graph(empty_csr(0)).shape == (0,)

    def test_isolated_vertices_colored(self):
        colors = color_graph(empty_csr(5))
        assert (colors >= 0).all()

    def test_all_vertices_colored(self, small_random):
        colors = color_graph(small_random)
        assert (colors >= 0).all()


def _color_graph_reference(graph, seed=0, max_rounds=256):
    """The original edge-scatter formulation (one ``np.maximum.at`` per
    round over every edge) — kept as the oracle for the production
    level sweep, which must match it exactly."""
    n = graph.num_vertices
    colors = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return colors
    src, dst, _ = graph.to_coo()
    notself = src != dst
    src, dst = src[notself], dst[notself]
    rng = np.random.default_rng(seed)
    priority = rng.permutation(n)
    uncolored = np.ones(n, dtype=bool)
    color = 0
    while uncolored.any():
        if color >= max_rounds:
            remaining = np.flatnonzero(uncolored)
            colors[remaining] = color + np.arange(remaining.shape[0])
            break
        live = uncolored[src] & uncolored[dst]
        best = np.full(n, -1, dtype=np.int64)
        if live.any():
            np.maximum.at(best, dst[live], priority[src[live]])
        winners = uncolored & (priority > best)
        colors[winners] = color
        uncolored[winners] = False
        color += 1
    return colors


def _assert_matches_reference(graph, **kwargs):
    got = color_graph(graph, **kwargs)
    assert np.array_equal(got, _color_graph_reference(graph, **kwargs)), kwargs
    return got


def _clique(n):
    src, dst = np.triu_indices(n, k=1)
    return build_csr_from_edges(src, dst, num_vertices=n)


class TestReferenceEquivalence:
    def test_random_graphs_exact_match(self):
        for seed in range(6):
            g = random_graph(n=60, avg_degree=6, seed=seed)
            for cseed in (0, 1, 42):
                _assert_matches_reference(g, seed=cseed)

    def test_self_loops_exact_match(self):
        g = build_csr_from_edges([0, 0, 1, 2], [0, 1, 2, 2])
        _assert_matches_reference(g)

    def test_max_rounds_fallback_exact_match(self):
        g = random_graph(n=40, avg_degree=20, seed=9)
        _assert_matches_reference(g, seed=3, max_rounds=2)

    def test_power_law_graph_exact_match(self):
        g, _ = lfr_like_graph(600, avg_degree=16, min_community=20, seed=5)
        for cseed in (0, 7):
            colors = _assert_matches_reference(g, seed=cseed)
            assert verify_coloring(g, colors)

    def test_holey_super_graph_exact_match(self):
        g, _ = lfr_like_graph(600, avg_degree=16, min_community=20, seed=5)
        rng = np.random.default_rng(0)
        C, ids = renumber_membership(rng.integers(0, 150, g.num_vertices))
        sup = aggregate_batch(g, C, len(ids), runtime=Runtime(num_threads=1))
        assert sup.is_holey
        for cseed in (0, 7):
            colors = _assert_matches_reference(sup, seed=cseed)
            assert verify_coloring(sup, colors)

    def test_duplicate_entries_exact_match(self):
        # Uncoalesced multi-edges: each CSR entry is its own DAG edge.
        g = build_csr_from_edges([0, 0, 0, 1, 1, 2, 3, 3],
                                 [1, 1, 2, 2, 2, 3, 4, 4], coalesce=None)
        assert g.num_edges == 16
        for cseed in range(8):
            colors = _assert_matches_reference(g, seed=cseed)
            assert verify_coloring(g, colors)

    def test_self_loop_only_and_isolated_vertices(self):
        # 0-2 carry only self loops, 3-4 are isolated, 5-6 share an edge.
        g = build_csr_from_edges([0, 1, 2, 2, 5], [0, 1, 2, 2, 6],
                                 num_vertices=7, coalesce=None)
        for cseed in range(4):
            colors = _assert_matches_reference(g, seed=cseed)
            assert (colors[:5] == 0).all()
            assert sorted(colors[5:].tolist()) == [0, 1]

    def test_large_clique_hits_default_round_cap(self):
        # K300 needs 300 rounds; the default cap of 256 hands the last
        # 44 vertices fresh colors 256..299 in ascending id order.
        g = _clique(300)
        colors = _assert_matches_reference(g)
        assert sorted(colors.tolist()) == list(range(300))
        tail = np.flatnonzero(colors >= 256)
        assert colors[tail].tolist() == list(range(256, 300))

    @pytest.mark.parametrize("max_rounds", [0, 1, 2])
    def test_small_round_caps_exact_match(self, max_rounds):
        g, _ = lfr_like_graph(300, avg_degree=12, min_community=20, seed=2)
        for cseed in (0, 1, 5, 11):
            colors = _assert_matches_reference(
                g, seed=cseed, max_rounds=max_rounds)
            assert verify_coloring(g, colors)


def _digest(colors):
    data = np.ascontiguousarray(colors, dtype=np.int64).tobytes()
    return hashlib.blake2b(data, digest_size=16).hexdigest()


class TestPinnedColoring:
    """The coloring fixes the batch engine's vertex schedule, so every
    committed membership depends on it.  These digests were recorded
    with the round-by-round Jones-Plassmann implementation; any rewrite
    must reproduce them bit for bit."""

    PINNED = {
        "asia_osm": "a1dc72fa088830fb409a2cc3f325512c",
        "uk-2002": "cdbf337b0e18a16cdf1e1cb7020e4113",
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_registry_digest(self, name):
        assert _digest(color_graph(load_graph(name, seed=1))) == self.PINNED[name]


class TestRegistryEquivalence:
    @pytest.mark.parametrize(
        "name",
        sorted(registry_names()) if FULL_REGISTRY else list(SMOKE_GRAPHS))
    def test_registry_graph_matches_reference(self, name):
        g = load_graph(name, seed=1)
        colors = _assert_matches_reference(g)
        assert verify_coloring(g, colors)


class TestColorClasses:
    def test_partition_of_vertices(self, small_random):
        colors = color_graph(small_random)
        classes = color_classes(colors)
        flat = np.concatenate(classes)
        assert sorted(flat.tolist()) == list(range(small_random.num_vertices))

    def test_classes_are_independent_sets(self, small_random):
        g = small_random
        colors = color_graph(g)
        member = {}
        for k, cls in enumerate(color_classes(colors)):
            for v in cls.tolist():
                member[v] = k
        src, dst, _ = g.to_coo()
        for u, v in zip(src.tolist(), dst.tolist()):
            if u != v:
                assert member[u] != member[v]

    def test_empty(self):
        assert color_classes(np.empty(0, dtype=np.int64)) == []

    @staticmethod
    def _assert_stable_argsort_split(colors):
        """The classes are the runs of one stable argsort of the int64
        colors, whether or not they fit the 16-bit sort."""
        order = np.argsort(colors.astype(np.int64), kind="stable")
        runs = np.split(order, np.flatnonzero(np.diff(colors[order])) + 1)
        got = color_classes(colors)
        assert len(got) == len(runs)
        for a, b in zip(got, runs):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_matches_stable_argsort_below_int16(self):
        g, _ = lfr_like_graph(600, avg_degree=16, min_community=20, seed=5)
        colors = color_graph(g, seed=3)
        assert colors.max() < 2 ** 15
        self._assert_stable_argsort_split(colors)

    def test_matches_stable_argsort_above_int16(self):
        # max_rounds=1 colors the path's level-0 vertices, then hands
        # every other vertex a fresh color: well past 2**15 colors.
        n = 70_000
        g = build_csr_from_edges(np.arange(n - 1), np.arange(1, n),
                                 num_vertices=n)
        colors = color_graph(g, max_rounds=1)
        assert colors.max() > np.iinfo(np.int16).max
        assert verify_coloring(g, colors)
        self._assert_stable_argsort_split(colors)
        # Around the edge of the 16-bit range, and a negative color.
        for top in (2 ** 15 - 1, 2 ** 15):
            rng = np.random.default_rng(top)
            self._assert_stable_argsort_split(
                rng.integers(-1, top + 1, 5000).astype(np.int64))
