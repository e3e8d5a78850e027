"""Shared fixtures: small graphs with known structure, the sort-kernel
and sequential-commit oracle switches, the process engine's pool gate
and the aggregation's range size."""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import aggregate, local_move_process, refine
from repro.core._kernels import segment_pair_sums_sort, segmented_argmax
from repro.core.workspace import KernelWorkspace
from repro.graph.builder import build_csr_from_edges
from repro.graph.csr import CSRGraph


@contextmanager
def sort_kernels():
    """Run the batch phases on the sort kernel family inside the block.

    The sort family (argsort/lexsort, O(E log E)) is the bitwise oracle
    for the production kernels.  This patches
    ``KernelWorkspace.pair_sums``, ``KernelWorkspace.argmax`` and the
    aggregation's ``segment_pair_sums_packed`` with it, and yields a
    :class:`~collections.Counter` of oracle calls per kernel so a test
    can assert that the oracle really ran.  Worker processes of the
    ``process`` engine do not see the patch.
    """
    calls: Counter = Counter()

    def pair_sums(self, seg, comm, weights, num_segments):
        calls["pair_sums"] += 1
        return segment_pair_sums_sort(seg, comm, weights, self.num_vertices)

    def argmax(self, seg, values):
        calls["argmax"] += 1
        return segmented_argmax(seg, values)

    def aggregate_pair_sums(seg, comm, weights, num_segments,
                            num_communities):
        calls["aggregate"] += 1
        return segment_pair_sums_sort(seg, comm, weights, num_communities)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(KernelWorkspace, "pair_sums", pair_sums)
        mp.setattr(KernelWorkspace, "argmax", argmax)
        mp.setattr(aggregate, "segment_pair_sums_packed", aggregate_pair_sums)
        yield calls


@contextmanager
def sequential_commit():
    """Commit every refinement batch through the one-at-a-time loop.

    The loop is the reference for the vectorized commit of
    ``refine_batch``.  This patches the batch commit with it and yields a
    :class:`~collections.Counter` whose ``"commit"`` entry counts the
    batches it decided, so a test can assert that the oracle really ran.
    """
    calls: Counter = Counter()

    def commit(mown, mcomm, joined, vacated, races, scratch):
        calls["commit"] += 1
        return refine._commit_sequential(mown, mcomm, joined, vacated, races)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(refine, "_commit", commit)
        yield calls


@contextmanager
def pool_gate(min_edges: int):
    """Run the process engine with ``POOL_MIN_EDGES = min_edges``.

    Yields a list that gets one ``(path, edges)`` entry per move batch
    the process engine runs inside the block, in order: ``path`` is
    ``"pool"`` or ``"inline"`` and ``edges`` the batch's degree total, so
    a test can assert which side of the gate every batch took.  At
    ``min_edges=0`` every batch goes to the pool.  Batch-engine solves
    are not recorded.
    """
    batches: list = []
    move_loop = local_move_process.move_loop

    def recording_loop(*args, pool_scan, **kwargs):
        def scan(vs, deg):
            moves = pool_scan(vs, deg)
            batches.append(("inline" if moves is None else "pool",
                            int(deg.sum())))
            return moves
        return move_loop(*args, pool_scan=scan, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(local_move_process, "POOL_MIN_EDGES", min_edges)
        mp.setattr(local_move_process, "move_loop", recording_loop)
        yield batches


@contextmanager
def aggregate_ranges(edges: int):
    """Run the batch aggregation with ``AGGREGATE_RANGE_EDGES = edges``.

    Yields a list that gets one ``(c0, c1, edges)`` entry per community
    range an aggregation inside the block splits its communities into,
    in order: communities ``c0..c1-1`` and their total degree, so a test
    can count the ranges and the non-empty ones.
    """
    ranges: list = []
    community_ranges = aggregate.community_ranges

    def recording_ranges(offsets, max_edges):
        bounds = community_ranges(offsets, max_edges)
        ranges.extend(
            (c0, c1, int(offsets[c1] - offsets[c0]))
            for c0, c1 in zip(bounds[:-1].tolist(), bounds[1:].tolist()))
        return bounds

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(aggregate, "AGGREGATE_RANGE_EDGES", edges)
        mp.setattr(aggregate, "community_ranges", recording_ranges)
        yield ranges


def _symmetric_weights(graph, draw):
    """``graph`` with ``draw(k)``'s values as the weights of its ``k``
    undirected vertex pairs, the same in both directions of an edge."""
    src, dst, _ = graph.to_coo()
    n = max(graph.num_vertices, 1)
    pair = np.minimum(src, dst).astype(np.int64) * n + np.maximum(src, dst)
    uniq, inv = np.unique(pair, return_inverse=True)
    weights = draw(uniq.shape[0])[inv].astype(graph.weights.dtype)
    return CSRGraph(graph.offsets, graph.targets, weights,
                    degrees=graph.degrees, validate=False)


def wide_exponent_weights(graph, seed: int = 0, decades: int = 16):
    """``graph`` with symmetric float32 weights spread over ``decades``.

    Both directions of an edge get the same weight.  Sums of such
    weights are not exact, so their bits depend on the summation order:
    the inputs that tell two kernels' summations apart.
    """
    rng = np.random.default_rng(seed)
    return _symmetric_weights(graph, lambda k: rng.uniform(1.0, 2.0, k)
                              * 10.0 ** rng.uniform(-decades / 2,
                                                    decades / 2, k))


def signed_zero_weights(graph, seed: int = 0):
    """``graph`` with symmetric weights of which about a third are
    ``+0.0`` and a third ``-0.0``, the rest in ``[0.5, 3)``.

    Σ then starts with zero and negative-zero entries, the values whose
    sign an update could flip.
    """
    rng = np.random.default_rng(seed)

    def draw(k):
        values = rng.uniform(0.5, 3.0, k)
        kind = rng.integers(0, 3, k)
        values[kind == 0] = 0.0
        values[kind == 1] = -0.0
        return values

    return _symmetric_weights(graph, draw)


def two_cliques_graph(clique_size: int = 5):
    """Two cliques joined by a single bridge edge; expected: 2 communities."""
    edges = []
    for base in (0, clique_size):
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                edges.append((base + i, base + j))
    edges.append((0, clique_size))
    src, dst = zip(*edges)
    return build_csr_from_edges(src, dst)


def ring_of_cliques_graph(num_cliques: int = 6, clique_size: int = 5):
    """Cliques arranged in a ring; expected: one community per clique."""
    edges = []
    n = num_cliques * clique_size
    for c in range(num_cliques):
        base = c * clique_size
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                edges.append((base + i, base + j))
        edges.append((base, (base + clique_size) % n))
    src, dst = zip(*edges)
    return build_csr_from_edges(src, dst)


def path_graph(n: int = 10):
    u = np.arange(n - 1)
    return build_csr_from_edges(u, u + 1)


def star_graph(n: int = 8):
    """Hub 0 connected to 1..n-1."""
    return build_csr_from_edges(np.zeros(n - 1, dtype=np.int64),
                                np.arange(1, n))


def weighted_triangle_graph():
    """Triangle with distinct weights 1, 2, 3."""
    return build_csr_from_edges([0, 1, 2], [1, 2, 0], [1.0, 2.0, 3.0])


def random_graph(n: int = 60, avg_degree: float = 6.0, seed: int = 0,
                 weighted: bool = False):
    rng = np.random.default_rng(seed)
    m = int(n * avg_degree / 2)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    wgt = rng.uniform(0.5, 3.0, src.shape[0]) if weighted else None
    return build_csr_from_edges(src, dst, wgt, num_vertices=n)


@pytest.fixture
def two_cliques():
    return two_cliques_graph()


@pytest.fixture
def ring_of_cliques():
    return ring_of_cliques_graph()


@pytest.fixture
def path10():
    return path_graph(10)


@pytest.fixture
def star8():
    return star_graph(8)


@pytest.fixture
def weighted_triangle():
    return weighted_triangle_graph()


@pytest.fixture
def small_random():
    return random_graph()


@pytest.fixture
def small_random_weighted():
    return random_graph(weighted=True, seed=3)
