"""Kernel microbenchmarks: ``repro bench --kernels``.

Times the counting kernel family against the sort family on the batch
shapes the Leiden phases actually produce (gathered CSR rows of the
smoke graphs plus synthetic stress shapes), and the bincount scatter
against ``np.add.at``.  Used to populate ``docs/PERFORMANCE.md`` and as
the CI kernel-timing step (``--quick``).  That the two families give
identical memberships end to end is a test
(``tests/property/test_property_kernels.py``), not a benchmark.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core._kernels import (
    scatter_add,
    segment_pair_sums_count,
    segment_pair_sums_sort,
    segmented_argmax,
    segmented_argmax_sorted,
)
from repro.core.config import LeidenConfig
from repro.core.leiden import leiden
from repro.datasets.registry import load_graph
from repro.graph.segments import gather_rows

__all__ = ["main"]

SMOKE_GRAPHS = ("asia_osm", "uk-2002", "com-Orkut")


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _batch_workload(graph, batch_size: int, rng, membership=None):
    """One local-move-shaped batch: gathered rows of random vertices.

    ``membership=None`` is the first-iteration shape (singletons, every
    neighbor a distinct community — the count family's worst case);
    passing a converged membership gives the steady-state shape.
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


def _print_row(name, e, sort_s, count_s):
    speed = sort_s / count_s if count_s > 0 else float("inf")
    print(f"{name:34s} | {e:>9,} | {sort_s * 1e3:8.2f} | "
          f"{count_s * 1e3:8.2f} | {speed:5.2f}x")


def main(seed: int = 42, repeats: int = 5, quick: bool = False) -> int:
    rng = np.random.default_rng(seed)
    if quick:
        repeats = 2
    print("Kernel microbenchmarks (best of "
          f"{repeats}; times in ms)")
    print(f"{'workload':34s} | {'elems':>9s} | {'sort':>8s} | "
          f"{'count':>8s} | ratio")
    print("-" * 72)

    # -- pair sums on real batch shapes ----------------------------------
    for gname in SMOKE_GRAPHS:
        graph = load_graph(gname)
        converged = leiden(graph, LeidenConfig(seed=seed)).membership
        for label, member in (("first-iter", None), ("converged", converged)):
            seg, comm, w, nseg, n = _batch_workload(
                graph, 4096, rng, membership=member
            )
            if seg.shape[0] == 0:
                continue
            scratch = np.empty(n, dtype=np.int64)
            sort_s = _best_of(
                lambda s=seg, c=comm, ww=w, nn=n:
                    segment_pair_sums_sort(s, c, ww, nn),
                repeats,
            )
            count_s = _best_of(
                lambda s=seg, c=comm, ww=w, ns=nseg, sc=scratch:
                    segment_pair_sums_count(s, c, ww, ns, sc),
                repeats,
            )
            _print_row(f"pair_sums {gname} {label}", seg.shape[0],
                       sort_s, count_s)

    # -- pair sums, synthetic stress shapes ------------------------------
    e = 100_000 if quick else 1_000_000
    for label, nseg, ncomm in (
        ("dense (few communities)", 4096, 64),
        ("sparse (many communities)", 4096, 200_000),
    ):
        seg = np.sort(rng.integers(0, nseg, e))
        comm = rng.integers(0, ncomm, e)
        w = rng.uniform(0, 1, e).astype(np.float32)
        scratch = np.empty(ncomm, dtype=np.int64)
        sort_s = _best_of(
            lambda s=seg, c=comm, ww=w, nc=ncomm:
                segment_pair_sums_sort(s, c, ww, nc),
            repeats,
        )
        count_s = _best_of(
            lambda s=seg, c=comm, ww=w, ns=nseg, sc=scratch:
                segment_pair_sums_count(s, c, ww, ns, sc),
            repeats,
        )
        _print_row(f"pair_sums {label}", e, sort_s, count_s)

    # -- segmented argmax ------------------------------------------------
    sz = 50_000 if quick else 500_000
    seg = np.sort(rng.integers(0, 4096, sz))
    vals = rng.uniform(-1, 1, sz)
    lex_s = _best_of(lambda: segmented_argmax(seg, vals), repeats)
    red_s = _best_of(lambda: segmented_argmax_sorted(seg, vals), repeats)
    _print_row("argmax lexsort vs reduceat", sz, lex_s, red_s)

    # -- scatter: np.add.at vs bincount ----------------------------------
    sz = 50_000 if quick else 500_000
    idx = rng.integers(0, 4096, sz)
    w = rng.uniform(-1, 1, sz)
    target = np.zeros(4096)
    scratch = np.empty(4096, dtype=np.int64)
    at_s = _best_of(lambda: np.add.at(target, idx, w), repeats)
    bc_s = _best_of(lambda: scatter_add(target, idx, w, scratch), repeats)
    _print_row("scatter np.add.at vs bincount", sz, at_s, bc_s)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
