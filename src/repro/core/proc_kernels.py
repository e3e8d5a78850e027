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
``community_weights`` Σ' (mutated by the parent between batch barriers;
                     workers only read)
``batch``            vertex ids of the batch in flight
``best_community``   per-batch-position output: argmax community (or -1)
``best_delta``       per-batch-position output: its ΔQ
==================== =====================================================

The scan kernel runs :func:`repro.core.local_move.scan_batch`, the
function the parent runs on the batches it scans itself, on one chunk of
the batch with the raw kernels.  The packed-key pair sums sum each
vertex's per-community weights with ``reduceat`` over that vertex's
edges in CSR order — a sum that depends only on the vertex's own edges,
never on which other rows share the call.  Candidate order per vertex is
ascending community id and the quality delta is elementwise, so a
chunk's outputs are bitwise identical to the corresponding slice of a
whole-batch evaluation, which is what makes the process engine's
membership independent of worker count and bitwise-equal to the batch
engine's.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core._kernels import (
    segment_pair_sums_packed,
    segmented_argmax_sorted,
)
from repro.core.local_move import scan_batch
from repro.core.quality import Quality
from repro.parallel.procpool import pool_kernel

__all__ = ["move_scan"]


@lru_cache(maxsize=8)
def _quality(kind: str, resolution: float) -> Quality:
    """One :class:`Quality` per (kind, resolution) and worker."""
    return Quality(kind, resolution)


@pool_kernel("move_scan")
def move_scan(
    ctx,
    *,
    lo: int,
    hi: int,
    m: float,
    quality: str,
    resolution: float,
    loops: bool,
) -> int:
    """Best move per vertex for batch positions ``[lo, hi)``.

    Writes ``best_community``/``best_delta`` at the chunk's positions and
    returns the number of edges scanned (the chunk's ledger work).
    """
    arena = ctx.arena
    C = arena["membership"]
    best_c = arena["best_community"]
    best_dq = arena["best_delta"]
    vs = arena["batch"][lo:hi]
    deg = arena["degrees"][vs]
    n = int(C.shape[0])

    best_c[lo:hi] = -1
    best_dq[lo:hi] = 0.0
    _, _, best = scan_batch(
        vs, deg, arena["offsets"], arena["targets"], arena["weights"],
        C, arena["vertex_weights"], arena["quantities"],
        arena["community_weights"], m, _quality(quality, resolution),
        lambda seg, comm, w, b: segment_pair_sums_packed(seg, comm, w, b, n),
        segmented_argmax_sorted, loops)
    if best is not None:
        bseg, bc, bdq = best
        best_c[lo + bseg] = bc
        best_dq[lo + bseg] = bdq
    return int(deg.sum())
