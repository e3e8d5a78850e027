"""Pool kernels executed inside the ``process`` engine's workers.

This module is imported *by the workers* (each pool ships its import
path), so a task message never carries code or arrays — only the kernel
name and chunk bounds.  Every kernel operates on the arena segments the
parent bound before the phase:

==================== =====================================================
arena key            contents
==================== =====================================================
``offsets``          CSR row offsets (``n + 1`` int64)
``degrees``          per-vertex degree
``targets``          CSR edge targets
``weights``          CSR edge weights
``membership``       current community per vertex (mutated by the parent
                     between batch barriers; workers only read)
``vertex_weights``   ``K_i``
``quantities``       per-vertex move quantity (``K_i`` or ``s_i``)
``community_weights``/``…__ops``  Σ' as a :class:`SharedAtomicArray`
``batch``            vertex ids of the batch in flight
``best_community``   per-batch-position output: argmax community (or -1)
``best_delta``       per-batch-position output: its ΔQ
``worker_stats``     ``(num_workers, 2)`` [edges scanned, tasks] tallies
==================== =====================================================

The scan kernel is the exact per-chunk restriction of
:func:`repro.core.local_move.local_move_batch`'s batch body.  It calls
the same packed-key pair sums, which sum each vertex's per-community
weights with ``reduceat`` over that vertex's edges in CSR order — a sum
that depends only on the vertex's own edges, never on which other rows
share the call.  Candidate order per vertex is ascending community id
and the quality delta is elementwise, so a chunk's outputs are bitwise
identical to the corresponding slice of a whole-batch evaluation, which
is what makes the process engine's membership independent of worker
count and bitwise-equal to the simulated batch oracle.
"""

from __future__ import annotations

import numpy as np

from repro.core._kernels import (
    segment_pair_sums_packed,
    segmented_argmax_sorted,
)
from repro.core.quality import Quality
from repro.graph.segments import gather_rows
from repro.parallel.atomics import SharedAtomicArray
from repro.parallel.procpool import pool_kernel
from repro.types import ACCUM_DTYPE

__all__ = ["move_scan"]


@pool_kernel("move_scan")
def move_scan(
    ctx,
    *,
    lo: int,
    hi: int,
    m: float,
    quality: str,
    resolution: float,
) -> int:
    """Best move per vertex for batch positions ``[lo, hi)``.

    Writes ``best_community``/``best_delta`` at the chunk's positions and
    returns the number of edges scanned (the chunk's ledger work).
    """
    arena = ctx.arena
    offsets = arena["offsets"]
    degrees = arena["degrees"]
    targets = arena["targets"]
    weights = arena["weights"]
    C = arena["membership"]
    K = arena["vertex_weights"]
    Q = arena["quantities"]
    Sigma = arena["community_weights"]
    best_c = arena["best_community"]
    best_dq = arena["best_delta"]
    vs = arena["batch"][lo:hi]

    best_c[lo:hi] = -1
    best_dq[lo:hi] = 0.0
    n = int(C.shape[0])

    seg, dst, w = gather_rows(offsets, degrees, targets, weights, vs)
    edges = int(seg.shape[0])
    if edges:
        notself = dst != vs[seg]
        seg, dst, w = seg[notself], dst[notself], w[notself]
    if seg.shape[0]:
        # scanCommunities for the chunk: K_{i→c} per adjacent community.
        pseg, pcomm, psum = segment_pair_sums_packed(
            seg, C[dst], w, vs.shape[0], n)
        d = C[vs]
        kid = np.zeros(vs.shape[0], dtype=ACCUM_DTYPE)
        own = pcomm == d[pseg]
        kid[pseg[own]] = psum[own]
        cand = ~own
        if cand.any():
            cseg = pseg[cand]
            cc = pcomm[cand]
            kic = psum[cand]
            mv_all = vs[cseg]
            qual = Quality(quality, resolution)
            dq = qual.delta(
                kic, kid[cseg], K[mv_all], Q[mv_all],
                Sigma[cc], Sigma[d[cseg]], m,
            )
            bseg, bidx = segmented_argmax_sorted(cseg, dq)
            best_c[lo + bseg] = cc[bidx]
            best_dq[lo + bseg] = dq[bidx]

    # Real cross-process atomic accounting: scanned-edge work folds into
    # the parent's ledger/metrics after the batch barrier.
    if "worker_stats" in arena and ctx.lock is not None:
        stats = SharedAtomicArray(
            arena["worker_stats"].reshape(-1),
            arena["worker_stats__ops"], ctx.lock)
        base = 2 * ctx.worker_id
        stats.add_many(
            np.asarray([base, base + 1]), np.asarray([float(edges), 1.0]))
    return edges
