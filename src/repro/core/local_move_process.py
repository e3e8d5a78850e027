"""Local-moving phase on real worker *processes* (the ``process`` engine).

This is the first engine that actually sidesteps the GIL: the per-batch
``scanCommunities`` + argmax work — the dominant cost of Algorithm 2 —
is fanned out to a persistent :class:`~repro.parallel.procpool.
ProcessPool` whose workers map the CSR arrays, membership and Σ' from
:class:`~repro.parallel.shm.ShmArena` segments (numpy views,
zero-copy).  Task messages carry only chunk bounds.

Determinism contract — the reason membership is *bitwise identical* to
the simulated batch oracle at any worker count:

1. color classes, intra-class order and batch boundaries are computed in
   the parent, exactly as :func:`~repro.core.local_move.local_move_batch`
   computes them;
2. within one batch every worker evaluates its chunk against the same
   frozen ``C``/``Σ`` snapshot (the parent only mutates state between
   batch barriers), and the chunk computation is the exact per-chunk
   restriction of the batch kernels — a per-(vertex, community) sum is
   one ``reduceat`` run over that vertex's edges in CSR order, whatever
   else shares the call, and candidate order and argmax tie-breaks are
   per-vertex, so chunk boundaries cannot change any output bit;
3. the parent applies the returned moves in batch position order with
   the same ``scatter_add`` the batch engine uses.

The pool's seeded task-dispatch permutation makes the *schedule*
reproducible too, but correctness never depends on which worker ran
which chunk — results are position-addressed in shared output arrays.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.local_move import VERTEX_COST
from repro.core.quality import Quality
from repro.core.result import PHASE_LOCAL_MOVE
from repro.core.workspace import KernelWorkspace
from repro.graph.csr import CSRGraph
from repro.graph.segments import gather_rows
from repro.parallel.coloring import color_classes, color_graph
from repro.parallel.procpool import ProcessPool
from repro.parallel.runtime import Runtime
from repro.parallel.schedule import Schedule, chunk_spans
from repro.parallel.shm import ShmArena

__all__ = ["local_move_process"]

#: Arena keys bound for the move phase (see proc_kernels for semantics).
_STATE_KEYS = ("membership", "vertex_weights", "quantities",
               "community_weights")


def _build_arena(
    graph: CSRGraph,
    pool: ProcessPool,
    C: np.ndarray,
    K: np.ndarray,
    Q: np.ndarray,
    Sigma: np.ndarray,
    *,
    memory=None,
    phase: str = PHASE_LOCAL_MOVE,
) -> ShmArena:
    """Lay the phase state out in shared memory (one copy per pass)."""
    n = graph.num_vertices
    arena = ShmArena(memory=memory, phase=phase)
    try:
        arena.from_array("offsets", graph.offsets)
        arena.from_array("degrees", graph.degrees)
        arena.from_array("targets", graph.targets)
        arena.from_array("weights", graph.weights)
        arena.from_array("membership", C)
        arena.from_array("vertex_weights", K)
        arena.from_array("quantities", Q)
        arena.from_array("community_weights", Sigma)
        arena.create("batch", (max(n, 1),), np.int64)
        arena.create("best_community", (max(n, 1),), np.int64)
        arena.create("best_delta", (max(n, 1),), np.float64)
        arena.create("worker_stats", (pool.num_workers, 2), np.float64,
                     per_worker=pool.num_workers)
        arena.create("worker_stats__ops", (1,), np.float64)
    except Exception:
        arena.unlink()
        raise
    return arena


def local_move_process(
    graph: CSRGraph,
    membership: np.ndarray,
    vertex_weights: np.ndarray,
    community_weights: np.ndarray,
    tolerance: float,
    *,
    runtime: Runtime,
    pool: ProcessPool | None = None,
    max_iterations: int = 20,
    batch_size: int = 4096,
    resolution: float = 1.0,
    color_seed: int = 0,
    quality: Quality | None = None,
    quantities=None,
    unprocessed_mask: np.ndarray | None = None,
    pruning: bool = True,
    order_ranks: np.ndarray | None = None,
    workspace: KernelWorkspace | None = None,
    phase: str = PHASE_LOCAL_MOVE,
) -> Tuple[int, float]:
    """Process-parallel local-moving; mutates ``membership`` and
    ``community_weights`` in place.  Returns ``(iterations, last_dq)``.

    Semantically equivalent (bitwise, on the membership) to
    :func:`~repro.core.local_move.local_move_batch`; see the module
    docstring for why.
    """
    n = graph.num_vertices
    if n == 0:
        return 1, 0.0
    m = graph.m
    if m <= 0:
        return 1, 0.0
    pool = pool if pool is not None else runtime.procpool()
    C = membership
    K = vertex_weights
    Sigma = community_weights
    degrees = graph.degrees
    offsets = graph.offsets
    targets = graph.targets
    weights = graph.weights
    qual = quality or Quality("modularity", resolution)
    Q = K if quantities is None else quantities
    ws = workspace if workspace is not None else KernelWorkspace(n)

    tracer = runtime.tracer
    metrics = runtime.metrics
    profiler = runtime.profiler
    m_pruned = metrics.counter(
        "leiden_pruning_vertices_total",
        "vertices visited vs. skipped by flag-based pruning", ("outcome",))
    mp_visited = m_pruned.labels("visited")
    mp_skipped = m_pruned.labels("skipped")
    m_moves = metrics.counter(
        "leiden_local_moves_total", "community moves applied")
    m_iters = metrics.counter(
        "leiden_move_iterations_total", "local-moving iterations executed")
    m_dq = metrics.counter(
        "leiden_move_delta_q_total", "summed delta-Q of applied moves")
    m_tasks = metrics.counter(
        "proc_pool_tasks_total",
        "chunk tasks dispatched to the worker-process pool", ("phase",))
    m_shm = metrics.counter(
        "mem_shm_bytes_total",
        "bytes laid out in shared-memory arenas", ("phase",))
    m_wedges = metrics.counter(
        "proc_worker_edges_total",
        "edges scanned inside pool workers, by worker", ("worker",))

    classes = color_classes(color_graph(graph, seed=color_seed))
    if order_ranks is not None:
        classes = [cls[np.argsort(order_ranks[cls], kind="stable")]
                   for cls in classes]
    runtime.record_parallel(degrees.astype(np.float64), phase=phase)
    if tracer.enabled:
        tracer.count("color_classes", len(classes))
        for cls in classes:
            tracer.observe("color_class_size", cls.shape[0])

    if unprocessed_mask is None:
        processed = np.zeros(n, dtype=bool)
    else:
        processed = ~np.asarray(unprocessed_mask, dtype=bool)

    iterations = 0
    total_dq = 0.0
    payload_const = {
        "m": float(m),
        "quality": qual.kind,
        "resolution": float(qual.resolution),
    }
    split = Schedule("static", 1)
    with _build_arena(graph, pool, C, K, Q, Sigma,
                      memory=runtime.memory, phase=phase) as arena:
        if metrics.enabled:
            m_shm.labels(phase).inc(arena.nbytes)
        C_shm = arena["membership"]
        Sigma_shm = arena["community_weights"]
        batch_buf = arena["batch"]
        best_c_buf = arena["best_community"]
        best_dq_buf = arena["best_delta"]
        pool.bind(arena.spec())
        try:
            for it in range(max_iterations):
                iterations = it + 1
                if not pruning and it > 0:
                    processed[:] = False
                total_dq = 0.0
                moves = 0
                visited_iter = 0
                iter_costs = []
                for cls in classes:
                    pending = cls[~processed[cls]]
                    visited_iter += int(pending.shape[0])
                    if metrics.enabled:
                        mp_visited.inc(pending.shape[0])
                        mp_skipped.inc(cls.shape[0] - pending.shape[0])
                    if tracer.enabled:
                        tracer.count("pruning_visited", pending.shape[0])
                        tracer.count("pruning_skipped",
                                     cls.shape[0] - pending.shape[0])
                    for lo in range(0, pending.shape[0], batch_size):
                        vs = pending[lo : lo + batch_size]
                        B = int(vs.shape[0])
                        if tracer.enabled:
                            tracer.observe("batch_size", B)
                        processed[vs] = True  # prune (Algorithm 2, line 6)
                        iter_costs.append(
                            degrees[vs].astype(np.float64) + VERTEX_COST)
                        batch_buf[:B] = vs
                        spans = chunk_spans(B, split, pool.num_workers)
                        results = pool.run("move_scan", [
                            {"lo": s, "hi": e, **payload_const}
                            for s, e in spans
                        ])
                        if metrics.enabled:
                            m_tasks.labels(phase).inc(len(spans))
                        if profiler.enabled:
                            for r in results:
                                profiler.worker_event(
                                    r.worker_id, "move_scan", r.start, r.end,
                                    phase=phase, edges=int(r.value))
                        # -- apply the batch's moves (parent, in order) ----
                        pos = np.flatnonzero(best_dq_buf[:B] > 0.0)
                        if pos.shape[0] == 0:
                            continue
                        mv = np.asarray(vs)[pos]
                        mc = best_c_buf[:B][pos].astype(C_shm.dtype)
                        kmv = Q[mv]
                        d_mv = C_shm[mv].copy()
                        # Σ updates are Algorithm 2's atomic adds; within
                        # the barrier they serialize in the parent through
                        # the same bincount scatter the batch engine uses.
                        ws.scatter_add(
                            Sigma_shm,
                            np.concatenate([d_mv, mc]),
                            np.concatenate([-kmv, kmv]),
                        )
                        C_shm[mv] = mc
                        total_dq += float(best_dq_buf[:B][pos].sum())
                        moves += int(mv.shape[0])
                        # Mark movers' neighbours unprocessed (line 14).
                        mseg, mdst, _ = gather_rows(
                            offsets, degrees, targets, weights, mv)
                        if mseg.shape[0]:
                            mdst = mdst[mdst != mv[mseg]]
                            processed[mdst] = False
                            processed[mv] = True
                if iter_costs:
                    runtime.record_parallel(
                        np.concatenate(iter_costs), phase=phase,
                        atomics=2.0 * moves,
                    )
                if metrics.enabled:
                    m_iters.inc()
                    m_moves.inc(moves)
                    m_dq.inc(total_dq)
                if tracer.enabled:
                    tracer.count("move_iterations")
                    tracer.count("local_moves", moves)
                    tracer.record("move_delta_q", total_dq)
                    tracer.record("move_visited", visited_iter)
                if profiler.enabled:
                    profiler.mark("move_delta_q", total_dq)
                if total_dq <= tolerance:
                    break
            if metrics.enabled:
                stats = arena["worker_stats"]
                for w in range(pool.num_workers):
                    m_wedges.labels(str(w)).inc(float(stats[w, 0]))
            # Propagate the shm state back into the caller's arrays.
            np.copyto(C, C_shm)
            np.copyto(Sigma, Sigma_shm)
        finally:
            pool.release()
    return iterations, total_dq
