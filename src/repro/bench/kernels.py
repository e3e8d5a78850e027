"""Kernel microbenchmarks: ``repro bench --kernels``.

Times the production pair-sum kernel (:func:`segment_pair_sums_packed`)
against its sort oracle on the shapes the Leiden phases actually
produce — gathered CSR rows of the smoke graphs and synthetic stress
shapes — plus the ``reduceat`` argmax against the lexsort oracle, the
bincount scatter against ``np.add.at`` on a small target, and its
window and compaction branches against the compaction formula
(:func:`scatter_add_compacted`) on a Σ-sized target.  The pass-0
aggregation of ``uk-2002`` and ``com-Orkut`` times the range-wise
:func:`~repro.core.aggregate.aggregate_batch` against one whole-graph
sort-oracle call (:func:`aggregate_one_shot`) and prints each side's
tracemalloc peak.  The CSR build (:func:`~repro.graph.builder.
build_csr_from_edges`, one packed-key sort) is timed against the
lexsort/argsort formula (:func:`build_csr_sort`) on an edge list of the
e2e web graph's size, with and without weights, and prints each side's
tracemalloc peak.  Every timed pair must give bitwise-identical outputs,
or the run exits 1.  Used to populate
``docs/PERFORMANCE.md`` and as the CI kernel-timing step (``--quick``).
That whole solves give identical memberships on either family is a
test (``tests/property/test_property_kernels.py``), not a benchmark.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np

from repro.core._kernels import (
    compact_keys,
    scatter_add,
    segment_pair_sums_packed,
    segment_pair_sums_sort,
    segmented_argmax,
    segmented_argmax_sorted,
)
from repro.core.aggregate import aggregate_batch
from repro.core.config import LeidenConfig
from repro.core.leiden import leiden
from repro.datasets.lfr import lfr_like_graph
from repro.datasets.registry import load_graph
from repro.graph.builder import build_csr_from_edges
from repro.graph.csr import CSRGraph
from repro.graph.ops import (
    as_edge_arrays,
    group_edges_sort,
    remove_self_loops,
    row_offsets,
    vertex_count,
)
from repro.graph.segments import gather_rows
from repro.parallel.runtime import Runtime
from repro.parallel.scan import csr_offsets_from_counts
from repro.types import VERTEX_DTYPE, WEIGHT_DTYPE

__all__ = ["aggregate_one_shot", "build_csr_sort", "main",
           "scatter_add_compacted"]

SMOKE_GRAPHS = ("asia_osm", "uk-2002", "com-Orkut")

#: Graphs whose pass-0 aggregation is timed against one whole-graph call.
AGGREGATION_GRAPHS = ("uk-2002", "com-Orkut")

#: The e2e ``solve-web`` graph (131k V, 1.70M stored edges), whose edge
#: list the CSR-build rows rebuild.
E2E_WEB = dict(num_vertices=131072, avg_degree=16.1, mixing=0.06,
               min_community=80, max_community_fraction=0.06)


def _best_of(fn, repeats: int):
    """Best wall time of ``repeats`` calls, and the last call's output."""
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def aggregate_one_shot(graph, membership, num_communities):
    """Pass aggregation as one whole-graph sort-oracle call.

    Sums every edge's ``(C[src], C[dst])`` pair in edge-list order with
    :func:`segment_pair_sums_sort` and places the rows in the holey CSR.
    Returns ``(offsets, degrees, targets, weights)``, the bitwise
    reference of :func:`~repro.core.aggregate.aggregate_batch`, which
    sums one range of communities at a time.
    """
    k = int(num_communities)
    src, dst, w = graph.to_coo()
    cs = membership[src]
    offsets = csr_offsets_from_counts(np.bincount(cs, minlength=k))
    usrc, udst, usum = segment_pair_sums_sort(cs, membership[dst], w, k)
    degrees = np.bincount(usrc, minlength=k)
    pos = offsets[usrc] + np.arange(usrc.shape[0]) - (
        np.cumsum(degrees) - degrees)[usrc]
    targets = np.zeros(int(offsets[-1]), dtype=VERTEX_DTYPE)
    weights = np.zeros(int(offsets[-1]), dtype=WEIGHT_DTYPE)
    targets[pos] = udst
    weights[pos] = usum
    return offsets, degrees, targets, weights


def build_csr_sort(sources, targets, weights=None, *,
                   num_vertices=None, symmetrize=True, coalesce="sum",
                   drop_self_loops=False) -> CSRGraph:
    """:func:`~repro.graph.builder.build_csr_from_edges` by the
    lexsort/argsort formula.

    The reverse edges are concatenated after the input, parallel edges
    merged after one ``np.lexsort`` and rows grouped by a stable
    ``argsort`` (:func:`~repro.graph.ops.group_edges_sort`): the bitwise
    reference of the packed-key build.
    """
    src, dst, wgt = as_edge_arrays(sources, targets, weights)
    n = vertex_count(src, dst, num_vertices)
    if drop_self_loops:
        src, dst, wgt = remove_self_loops(src, dst, wgt)
    src, dst, wgt = group_edges_sort(src, dst, wgt, symmetrize=symmetrize,
                                     reduce=coalesce)
    return CSRGraph(row_offsets(src, n), dst, wgt)


def web_edge_list(seed: int):
    """A raw edge list of the e2e web graph's size, and its vertex count.

    Each undirected edge once, in random order, plus the reverse of a
    fifth of them (parallel edges to merge), and random float32 weights
    over 16 decades, the same for both copies of an edge.
    """
    graph, _ = lfr_like_graph(E2E_WEB["num_vertices"], seed=seed,
                              **{k: v for k, v in E2E_WEB.items()
                                 if k != "num_vertices"})
    src, dst = graph.endpoints()
    fwd = src < dst
    src, dst = src[fwd], dst[fwd]
    rng = np.random.default_rng(seed)
    w = (rng.uniform(1.0, 2.0, src.shape[0])
         * 10.0 ** rng.uniform(-8, 8, src.shape[0])).astype(WEIGHT_DTYPE)
    dup = rng.random(src.shape[0]) < 0.2
    order = rng.permutation(src.shape[0] + int(dup.sum()))
    return (np.concatenate([src, dst[dup]])[order],
            np.concatenate([dst, src[dup]])[order],
            np.concatenate([w, w[dup]])[order], graph.num_vertices)


def scatter_add_compacted(target, idx, weights) -> None:
    """``target[idx] += weights`` by the compaction formula on every input.

    Each distinct id's weights are summed in input order by one
    ``bincount`` over the compacted ids, then added once to the id's
    slot: the bitwise reference of every branch of
    :func:`~repro.core._kernels.scatter_add`.
    """
    if idx.shape[0] == 0:
        return
    compact, uniques = compact_keys(idx, domain=target.shape[0])
    target[uniques] += np.bincount(
        compact, weights=weights, minlength=uniques.shape[0])


def _traced_peak(fn) -> int:
    """Bytes at the tracemalloc peak of one ``fn()`` call."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _same_bits(a, b) -> bool:
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
               for x, y in zip(a, b))


def _batch_workload(graph, batch_size: int, rng, membership=None):
    """One local-move-shaped batch: gathered rows of random vertices.

    ``membership=None`` is the first-iteration shape (singletons, every
    neighbor a distinct community); passing a converged membership gives
    the steady-state shape.
    """
    n = graph.num_vertices
    vs = rng.choice(n, size=min(batch_size, n), replace=False)
    vs.sort()
    seg, dst, w = gather_rows(
        graph.offsets[:-1], graph.degrees, graph.targets, graph.weights, vs
    )
    if membership is None:
        comm = dst.astype(np.int64)
    else:
        comm = membership[dst].astype(np.int64)
    return seg, comm, w, vs.shape[0], n


def _print_row(name, e, oracle_s, prod_s, same, note=""):
    speed = oracle_s / prod_s if prod_s > 0 else float("inf")
    print(f"{name:36s} | {e:>9,} | {oracle_s * 1e3:8.2f} | "
          f"{prod_s * 1e3:8.2f} | {speed:5.2f}x | "
          f"{'ok' if same else 'DIFFERS'}{note}")


def main(seed: int = 42, repeats: int = 5, quick: bool = False) -> int:
    rng = np.random.default_rng(seed)
    if quick:
        repeats = 2
    print("Kernel microbenchmarks (best of "
          f"{repeats}; times in ms; oracle = sort family; aggregate "
          "rows also print the tracemalloc peak, oracle/prod)")
    print(f"{'workload':36s} | {'elems':>9s} | {'oracle':>8s} | "
          f"{'prod':>8s} | ratio | bits")
    print("-" * 82)
    differs = 0

    def pair_sums_row(name, seg, comm, w, nseg, ncomm):
        nonlocal differs
        sort_s, ref = _best_of(
            lambda: segment_pair_sums_sort(seg, comm, w, ncomm), repeats)
        prod_s, got = _best_of(
            lambda: segment_pair_sums_packed(seg, comm, w, nseg, ncomm),
            repeats)
        same = _same_bits(ref, got)
        differs += not same
        _print_row(name, seg.shape[0], sort_s, prod_s, same)

    # -- pair sums on real batch shapes, and pass-0 aggregation ----------
    for gname in SMOKE_GRAPHS:
        graph = load_graph(gname)
        result = leiden(graph, LeidenConfig(seed=seed))
        for label, member in (("first-iter", None),
                              ("converged", result.membership)):
            seg, comm, w, nseg, n = _batch_workload(
                graph, 4096, rng, membership=member
            )
            if seg.shape[0]:
                pair_sums_row(f"pair_sums {gname} {label}",
                              seg, comm, w, nseg, n)
        if gname in AGGREGATION_GRAPHS:
            # Pass-0 aggregation, C the first dendrogram level (pass 0's
            # refined membership): range-wise against one whole-graph
            # sort-oracle call.
            C = result.dendrogram.level(0)
            k = int(C.max()) + 1
            runtime = Runtime()

            def ranges():
                g = aggregate_batch(graph, C, k, runtime=runtime)
                return g.offsets, g.degrees, g.targets, g.weights

            def one_shot():
                return aggregate_one_shot(graph, C, k)

            sort_s, ref = _best_of(one_shot, repeats)
            prod_s, got = _best_of(ranges, repeats)
            same = _same_bits(ref, got)
            differs += not same
            _print_row(f"aggregate {gname} pass 0", graph.num_edges,
                       sort_s, prod_s, same,
                       f" | peak {_traced_peak(one_shot) / 2**20:.1f}/"
                       f"{_traced_peak(ranges) / 2**20:.1f} MiB")

    # -- CSR build: packed-key sort vs lexsort/argsort -------------------
    src, dst, w, n = web_edge_list(seed)
    for label, weights in (("unit weights", None), ("weights", w)):
        def packed():
            return build_csr_from_edges(src, dst, weights, num_vertices=n)

        def oracle():
            return build_csr_sort(src, dst, weights, num_vertices=n)

        def arrays(g):
            return g.offsets, g.targets, g.weights, g.degrees

        sort_s, ref = _best_of(oracle, repeats)
        prod_s, got = _best_of(packed, repeats)
        same = _same_bits(arrays(ref), arrays(got))
        differs += not same
        _print_row(f"csr build web ({label})", src.shape[0], sort_s, prod_s,
                   same, f" | peak {_traced_peak(oracle) / 2**20:.1f}/"
                   f"{_traced_peak(packed) / 2**20:.1f} MiB")

    # -- pair sums, synthetic stress shapes ------------------------------
    e = 100_000 if quick else 1_000_000
    for label, nseg, ncomm in (
        ("dense (few communities)", 4096, 64),
        ("sparse (many communities)", 4096, 200_000),
    ):
        seg = np.sort(rng.integers(0, nseg, e))
        comm = rng.integers(0, ncomm, e)
        w = rng.uniform(0, 1, e).astype(np.float32)
        pair_sums_row(f"pair_sums {label}", seg, comm, w, nseg, ncomm)

    # -- segmented argmax ------------------------------------------------
    sz = 50_000 if quick else 500_000
    seg = np.sort(rng.integers(0, 4096, sz))
    vals = rng.uniform(-1, 1, sz)
    lex_s, ref = _best_of(lambda: segmented_argmax(seg, vals), repeats)
    red_s, got = _best_of(lambda: segmented_argmax_sorted(seg, vals),
                          repeats)
    same = _same_bits(ref, got)
    differs += not same
    _print_row("argmax lexsort vs reduceat", sz, lex_s, red_s, same)

    # -- scatter: np.add.at vs bincount ----------------------------------
    # Timed only: bincount sums duplicates in its own order, so only
    # exact (integer-valued) weights give equal bits; the check uses them.
    sz = 50_000 if quick else 500_000
    idx = rng.integers(0, 4096, sz)
    w = rng.integers(-4, 5, sz).astype(np.float64)
    target = np.zeros(4096)
    at_target = np.zeros(4096)
    scratch = np.empty(4096, dtype=np.int64)
    at_s, _ = _best_of(lambda: np.add.at(at_target, idx, w), repeats)
    bc_s, _ = _best_of(lambda: scatter_add(target, idx, w, scratch),
                       repeats)
    same = target.tobytes() == at_target.tobytes()
    differs += not same
    _print_row("scatter np.add.at vs bincount", sz, at_s, bc_s, same)

    # -- scatter: window and compaction branches vs the compaction formula
    # Σ-sized target (the solve-kmer graph's 800k vertices), weights over
    # 16 decades; each side accumulates ``repeats`` times into its copy.
    slots = 800_000
    sigma = rng.uniform(1.0, 2.0, slots) * 10.0 ** rng.uniform(-8, 8, slots)
    scratch = np.empty(slots, dtype=np.int64)
    sz = 50_000 if quick else 150_000

    def scatter_row(name, idx):
        nonlocal differs
        w = (rng.choice([-1.0, 1.0], sz) * rng.uniform(1.0, 2.0, sz)
             * 10.0 ** rng.uniform(-8, 8, sz))
        ref, got = sigma.copy(), sigma.copy()
        oracle_s, _ = _best_of(lambda: scatter_add_compacted(ref, idx, w),
                               repeats)
        prod_s, _ = _best_of(lambda: scatter_add(got, idx, w, scratch),
                             repeats)
        same = ref.tobytes() == got.tobytes()
        differs += not same
        _print_row(name, sz, oracle_s, prod_s, same)

    scatter_row("scatter window (local ids)",
                slots // 2 + rng.integers(0, 2 * sz, sz))
    scatter_row("scatter compaction (spread ids)",
                rng.integers(0, slots, sz))

    if differs:
        print(f"FAIL: {differs} timed pair(s) gave different outputs")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
