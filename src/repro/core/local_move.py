"""Local-moving phase of GVE-Leiden (Algorithm 2).

Each vertex greedily joins the adjacent community with the highest
positive delta-modularity.  Optimizations from the paper:

- **flag-based vertex pruning** — a vertex is marked processed when
  visited and its neighbors are re-marked unprocessed whenever it moves;
- **asynchronous updates** — vertices observe the latest memberships;
- **per-thread collision-free hashtables** hold the ``K_{i→c}`` sums;
- ``Σ'`` updates are atomic (counted for the machine model);
- iteration cap ``MAX_ITERATIONS`` and tolerance τ on the summed ΔQ.

Two engines are provided.  ``local_move_loop`` is the literal per-vertex
algorithm with an explicit hashtable — the reference semantics.
``local_move_batch`` is the production path: it vectorizes whole batches
of vertices against one snapshot of the memberships.  To keep batch
decisions as independent as the asynchronous algorithm's, batches are
drawn from the classes of a proper graph coloring (a parallel-Louvain
technique the paper cites from Grappolo): adjacent vertices never share a
snapshot, which removes the community-swap oscillations synchronous
updates suffer from.

:func:`move_loop` is the batch iteration itself, shared with the
``process`` engine (:mod:`repro.core.local_move_process`): the two differ
only in who scans a batch.  :func:`scan_batch` is that scan, and the
process engine's workers run it on their chunks of a batch.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.core.quality import Quality
from repro.core.result import PHASE_LOCAL_MOVE
from repro.core.workspace import KernelWorkspace
from repro.graph.csr import CSRGraph
from repro.graph.segments import ragged_indices
from repro.parallel.atomics import AtomicArray
from repro.parallel.coloring import color_classes, color_graph
from repro.parallel.hashtable import CollisionFreeHashtable
from repro.parallel.runtime import Runtime
from repro.types import ACCUM_DTYPE

__all__ = ["candidate_moves", "local_move_batch", "local_move_loop",
           "move_loop", "scan_batch", "scan_communities"]

#: Bookkeeping work units charged per visited vertex on top of its degree.
VERTEX_COST = 4.0

#: A batch's moves: batch positions, target communities and their ΔQ.
Moves = Tuple[np.ndarray, np.ndarray, np.ndarray]


def scan_batch(vs, deg, offsets, targets, weights, C, K, Q, Sigma, m,
               quality: Quality, pair_sums, argmax, loops: bool):
    """``scanCommunities`` and the best move of each vertex in ``vs``.

    Every vertex is evaluated against the same snapshot of ``C``/``Σ``
    (Algorithm 2, lines 7-10).  ``deg`` is ``vs``' degrees, and
    ``loops=False`` states that the graph has no self loops, so the
    self-edge filter has nothing to drop and is skipped.
    ``pair_sums(seg, comm, w, num_segments)`` and ``argmax(seg, values)``
    are the kernels: the dispatching methods of a
    :class:`KernelWorkspace` in the parent, the raw kernels in a pool
    worker.  Each output of a vertex depends on that vertex's own edges
    only, so scanning a chunk of ``vs`` gives the batch's outputs for the
    chunk's positions bit for bit.

    Returns ``(seg, dst, best)``: the batch's non-self edges as batch
    positions and targets, and ``best = (bseg, bc, bdq)`` — every
    position with a candidate community, its best candidate and that
    move's ΔQ (positive or not) — or ``None`` when no vertex has one.
    """
    seg, idx = ragged_indices(offsets[vs], deg)
    dst = targets[idx]
    if loops:
        keep = np.flatnonzero(dst != vs[seg])
        seg, dst, idx = seg[keep], dst[keep], idx[keep]
    if seg.shape[0] == 0:
        return seg, dst, None
    # K_{i→c} for every adjacent community.
    pseg, pcomm, psum = pair_sums(seg, C[dst], weights[idx], vs.shape[0])
    found = candidate_moves(vs, C[vs], pseg, pcomm, psum, K, Q, Sigma, m,
                            quality)
    if found is None:
        return seg, dst, None
    cseg, cc, dq = found
    bseg, bidx = argmax(cseg, dq)
    return seg, dst, (bseg, cc[bidx], dq[bidx])


def candidate_moves(vs, d, pseg, pcomm, psum, K, Q, Sigma, m,
                    quality: Quality):
    """ΔQ of moving each vertex of ``vs`` to each adjacent community
    other than its own community ``d``.

    ``(pseg, pcomm, psum)`` are the batch's pair sums.  Returns
    ``(cseg, cc, dq)`` — every candidate's batch position, community and
    ΔQ, in pair order — or ``None`` when no vertex has a candidate.
    """
    own = pcomm == d[pseg]
    at = np.flatnonzero(own)
    kid = np.zeros(vs.shape[0], dtype=ACCUM_DTYPE)
    kid[pseg[at]] = psum[at]
    at = np.flatnonzero(~own)
    if at.shape[0] == 0:
        return None
    cseg, cc = pseg[at], pcomm[at]
    # The vertex terms are gathered once per vertex, then per candidate
    # from the batch-sized copies; K_i serves as q_i when they coincide.
    kc = K[vs][cseg]
    qc = kc if Q is K else Q[vs][cseg]
    dq = quality.delta(psum[at], kid[cseg], kc, qc, Sigma[cc],
                       Sigma[d][cseg], m)
    return cseg, cc, dq


def _move_report(runtime: Runtime) -> Callable[[int, float, int, int], None]:
    """The move phase's one report of its totals, shared by every engine.

    Registers the phase's metric families when called (at the start of
    the phase) and returns ``report(moves, total_dq, visited, skipped)``,
    which records one iteration's totals.
    """
    rec = runtime.recorder
    if rec.enabled:
        rec.family("counter", "leiden_pruning_vertices_total",
                   "vertices visited vs. skipped by flag-based pruning",
                   ("outcome",))
        rec.family("counter", "leiden_local_moves_total",
                   "community moves applied")
        rec.family("counter", "leiden_move_iterations_total",
                   "local-moving iterations executed")
        rec.family("counter", "leiden_move_delta_q_total",
                   "summed delta-Q of applied moves")

    def report(moves: int, total_dq: float, visited: int,
               skipped: int) -> None:
        if rec.enabled:
            rec.count("move_iterations")
            rec.count("local_moves", moves)
            rec.count("pruning_skipped", skipped)
            # Convergence monitor: per-iteration ΔQ and vertices visited
            # (pruning effectiveness) as ordered series on the open span.
            rec.series("move_delta_q", total_dq)
            rec.series("move_visited", visited)
    return report


def move_loop(
    graph: CSRGraph,
    colors: np.ndarray,
    membership: np.ndarray,
    vertex_weights: np.ndarray,
    quantities: np.ndarray,
    community_weights: np.ndarray,
    tolerance: float,
    *,
    runtime: Runtime,
    quality: Quality,
    workspace: KernelWorkspace | None,
    max_iterations: int,
    batch_size: int,
    unprocessed_mask: np.ndarray | None,
    pruning: bool,
    phase: str,
    pool_scan: Optional[Callable[[np.ndarray, np.ndarray],
                                 Optional[Moves]]] = None,
) -> Tuple[int, float]:
    """Algorithm 2's iterations over the batches of ``colors``' classes;
    mutates ``membership`` and ``community_weights`` in place.

    Every batch is scanned inline by :func:`scan_batch` through the
    workspace's kernels, unless ``pool_scan(vs, degrees[vs])`` takes it:
    then it returns the batch's positive moves, ascending by position,
    and ``None`` when it leaves the batch to the inline scan.  Moves are
    applied in batch position order either way.

    Returns ``(iterations, last_iteration_delta_q)``.
    """
    n = graph.num_vertices
    m = graph.m
    C = membership
    K = vertex_weights
    Q = quantities
    Sigma = community_weights
    offsets = graph.offsets[:-1]
    degrees = graph.degrees
    targets = graph.targets
    weights = graph.weights
    loops = graph.has_self_loops
    ws = workspace if workspace is not None else KernelWorkspace(n)

    rec = runtime.recorder
    report = _move_report(runtime)
    classes = color_classes(colors)
    runtime.record_parallel(degrees, phase=phase)
    if rec.enabled:
        rec.count("color_classes", len(classes))
        for cls in classes:
            rec.observe("color_class_size", cls.shape[0])

    if unprocessed_mask is None:
        processed = np.zeros(n, dtype=bool)
    else:
        processed = ~np.asarray(unprocessed_mask, dtype=bool)
    iterations = 0
    total_dq = 0.0
    for it in range(max_iterations):
        iterations = it + 1
        if not pruning and it > 0:
            processed[:] = False
        total_dq = 0.0
        moves = 0
        visited = 0
        iter_costs = []
        for cls in classes:
            pending = cls[~processed[cls]]
            visited += int(pending.shape[0])
            for lo in range(0, pending.shape[0], batch_size):
                vs = pending[lo : lo + batch_size]
                if rec.enabled:
                    rec.observe("batch_size", vs.shape[0])
                processed[vs] = True  # prune (Algorithm 2, line 6)
                deg = degrees[vs]
                iter_costs.append(deg)
                pooled = pool_scan(vs, deg) if pool_scan is not None else None
                if pooled is not None:
                    mseg, mc, mdq = pooled
                    if mseg.shape[0] == 0:
                        continue
                else:
                    seg, dst, best = scan_batch(
                        vs, deg, offsets, targets, weights, C, K, Q,
                        Sigma, m, quality, ws.pair_sums, ws.argmax, loops)
                    if best is None:
                        continue
                    bseg, bc, bdq = best
                    keep = bdq > 0.0
                    if not keep.any():
                        continue
                    mseg, mc, mdq = bseg[keep], bc[keep], bdq[keep]
                mv = vs[mseg]
                mc = mc.astype(C.dtype)
                kmv = Q[mv]
                # Σ updates are the atomic adds of Algorithm 2, line 12
                # (bincount-based scatter; ufunc.at is far slower).
                ws.scatter_add(
                    Sigma,
                    np.concatenate([C[mv], mc]),
                    np.concatenate([-kmv, kmv]),
                )
                C[mv] = mc
                total_dq += float(mdq.sum())
                moves += int(mv.shape[0])
                # Mark neighbors of movers as unprocessed (line 14).  The
                # movers share a color class, so none is another's
                # neighbor.  A pooled batch's edges stayed in the workers.
                if pooled is not None:
                    seg, idx = ragged_indices(offsets[mv], degrees[mv])
                    dst = targets[idx]
                    processed[dst[dst != mv[seg]] if loops else dst] = False
                else:
                    mflag = np.zeros(vs.shape[0], dtype=bool)
                    mflag[mseg] = True
                    processed[dst[mflag[seg]]] = False
        if iter_costs:
            runtime.record_parallel(
                np.concatenate(iter_costs), phase=phase, atomics=2.0 * moves,
                per_item=VERTEX_COST,
            )
        report(moves, total_dq, visited, n - visited)
        if total_dq <= tolerance:
            break
    return iterations, total_dq


def local_move_batch(
    graph: CSRGraph,
    membership: np.ndarray,
    vertex_weights: np.ndarray,
    community_weights: np.ndarray,
    tolerance: float,
    *,
    runtime: Runtime,
    max_iterations: int = 20,
    batch_size: int = 4096,
    resolution: float = 1.0,
    color_seed: int = 0,
    quality: Quality | None = None,
    quantities=None,
    unprocessed_mask: np.ndarray | None = None,
    pruning: bool = True,
    workspace: KernelWorkspace | None = None,
    phase: str = PHASE_LOCAL_MOVE,
) -> Tuple[int, float]:
    """Vectorized local-moving phase; mutates ``membership`` and
    ``community_weights`` in place.

    ``workspace`` supplies the preallocated kernel scratch map and
    dispatches the kernels; by default a fresh workspace is created for
    the call.

    ``pruning=False`` disables the flag-based vertex pruning (every
    iteration revisits every vertex) — the ablation knob for the paper's
    pruning optimization.

    ``unprocessed_mask`` seeds the pruning flags: only vertices marked
    True start unprocessed (the dynamic-update frontier); by default all
    vertices do.  Pruning then propagates work to neighbours of movers
    exactly as in the static algorithm.

    ``community_weights`` is the community aggregate of the active
    quality function (Σ for modularity, S for CPM) and ``quantities``
    the per-vertex amount moves carry (defaults to the vertex weights —
    the modularity convention).

    Returns ``(iterations, last_iteration_delta_q)``.
    """
    if graph.num_vertices == 0 or graph.m <= 0:
        return 1, 0.0
    return move_loop(
        graph, color_graph(graph, seed=color_seed), membership,
        vertex_weights,
        vertex_weights if quantities is None else quantities,
        community_weights, tolerance,
        runtime=runtime,
        quality=quality or Quality("modularity", resolution),
        workspace=workspace,
        max_iterations=max_iterations,
        batch_size=batch_size,
        unprocessed_mask=unprocessed_mask,
        pruning=pruning,
        phase=phase,
    )


def scan_communities(
    table: CollisionFreeHashtable,
    graph: CSRGraph,
    membership: np.ndarray,
    vertex: int,
    include_self: bool,
) -> CollisionFreeHashtable:
    """``scanCommunities`` of Algorithm 2: fill ``table`` with ``K_{i→c}``."""
    dst, wgt = graph.edges(vertex)
    for j, w in zip(dst.tolist(), wgt.tolist()):
        if not include_self and j == vertex:
            continue
        table.accumulate(int(membership[j]), float(w))
    return table


def local_move_loop(
    graph: CSRGraph,
    membership: np.ndarray,
    vertex_weights: np.ndarray,
    community_weights: np.ndarray,
    tolerance: float,
    *,
    runtime: Runtime,
    max_iterations: int = 20,
    resolution: float = 1.0,
    quality: Quality | None = None,
    quantities=None,
    unprocessed_mask: np.ndarray | None = None,
    pruning: bool = True,
    phase: str = PHASE_LOCAL_MOVE,
) -> Tuple[int, float]:
    """Reference per-vertex local-moving phase (exact Algorithm 2).

    Vertices are processed strictly in ascending id order with immediate
    visibility of every move — the fully asynchronous semantics.  Uses one
    collision-free hashtable per (simulated) thread and atomic Σ updates.
    """
    n = graph.num_vertices
    if n == 0:
        return 1, 0.0
    m = graph.m
    if m <= 0:
        return 1, 0.0
    C = membership
    K = vertex_weights
    Sigma = AtomicArray(community_weights)
    tables = runtime.hashtables(n)
    report = _move_report(runtime)
    qual = quality or Quality("modularity", resolution)
    Q = K if quantities is None else quantities

    if unprocessed_mask is None:
        processed = np.zeros(n, dtype=bool)
    else:
        processed = ~np.asarray(unprocessed_mask, dtype=bool)
    iterations = 0
    total_dq = 0.0
    for it in range(max_iterations):
        iterations = it + 1
        if not pruning and it > 0:
            processed[:] = False
        total_dq = 0.0
        work = np.zeros(n, dtype=np.float64)
        moves = 0
        for i in range(n):
            if processed[i]:
                continue
            processed[i] = True
            table = tables[i % len(tables)]
            table.clear()
            scan_communities(table, graph, C, i, include_self=False)
            work[i] = graph.degree(i) + VERTEX_COST
            if len(table) == 0:
                continue
            d = int(C[i])
            kid = table.get(d)
            ki = float(K[i])
            qi = float(Q[i])
            best_c, best_dq = -1, 0.0
            for c, kic in table.items():
                if c == d:
                    continue
                dq = float(qual.delta(kic, kid, ki, qi,
                                      float(Sigma[c]), float(Sigma[d]), m))
                if dq > best_dq:
                    best_c, best_dq = c, dq
            if best_c < 0:
                continue
            Sigma.add(d, -qi)
            Sigma.add(best_c, qi)
            C[i] = best_c
            total_dq += best_dq
            moves += 1
            neighbors = graph.neighbors(i)
            processed[neighbors] = False
            processed[i] = True
        runtime.record_parallel(
            work[work > 0], phase=phase, atomics=2.0 * moves
        )
        visited = int(np.count_nonzero(work))
        report(moves, total_dq, visited, n - visited)
        if total_dq <= tolerance:
            break
    return iterations, total_dq
