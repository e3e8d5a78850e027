"""Local-moving phase on real worker *processes* (the ``process`` engine).

This is the first engine that actually sidesteps the GIL: the per-batch
``scanCommunities`` + argmax work — the dominant cost of Algorithm 2 —
is fanned out to a persistent :class:`~repro.parallel.procpool.
ProcessPool` whose workers map the CSR arrays, membership and Σ' from
:class:`~repro.parallel.shm.ShmArena` segments (numpy views,
zero-copy).  Task messages carry only chunk bounds.

A pool round trip costs a fixed fraction of a millisecond, so only
batches holding at least :data:`POOL_MIN_EDGES` edges go to the pool.
The parent scans every smaller batch itself, exactly as the ``batch``
engine does: both engines run one loop,
:func:`~repro.core.local_move.move_loop`, and differ only in who scans
a batch.

Determinism contract — the reason membership is *bitwise identical* to
the batch engine at any worker count:

1. color classes, intra-class order and batch boundaries are computed in
   the parent by the shared loop;
2. a batch below the gate is scanned in the parent by
   :func:`~repro.core.local_move.scan_batch`, the batch engine's scan;
3. a pooled batch is split into chunks, and every worker runs the same
   :func:`~repro.core.local_move.scan_batch` on its chunk against one
   frozen ``C``/``Σ`` snapshot (the parent only mutates state between
   batch barriers).  A per-(vertex, community) sum is one ``reduceat``
   run over that vertex's edges in CSR order, whatever else shares the
   call, and candidate order and argmax tie-breaks are per-vertex, so
   chunk boundaries cannot change any output bit;
4. the parent applies every batch's moves in batch position order with
   the same ``scatter_add``.

The pool's seeded task-dispatch permutation makes the *schedule*
reproducible too, but correctness never depends on which worker ran
which chunk — results are position-addressed in shared output arrays.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.local_move import move_loop
from repro.core.quality import Quality
from repro.core.result import PHASE_LOCAL_MOVE
from repro.core.workspace import KernelWorkspace
from repro.graph.csr import CSRGraph
from repro.parallel.coloring import color_graph
from repro.parallel.runtime import Runtime
from repro.parallel.schedule import Schedule, chunk_spans
from repro.parallel.shm import ShmArena

__all__ = ["POOL_MIN_EDGES", "local_move_process"]

#: A batch goes to the pool only when its vertices' degrees sum to at
#: least this many edges; the parent scans smaller batches itself.  At
#: 2 workers on a 2-vCPU host a pool round trip breaks even with the
#: inline scan near 32k edges (docs/PERFORMANCE.md, "Which batches the
#: pool scans").
POOL_MIN_EDGES = 32768


def _build_arena(
    graph: CSRGraph,
    C: np.ndarray,
    K: np.ndarray,
    Q: np.ndarray,
    Sigma: np.ndarray,
    *,
    phase: str = PHASE_LOCAL_MOVE,
) -> ShmArena:
    """Lay the phase state out in shared memory (one copy per pass)."""
    n = graph.num_vertices
    arena = ShmArena(phase=phase)
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
    """Process-parallel local-moving; mutates ``membership`` and
    ``community_weights`` in place.  Returns ``(iterations, last_dq)``.

    Semantically equivalent (bitwise, on the membership) to
    :func:`~repro.core.local_move.local_move_batch`; see the module
    docstring for why.
    """
    if graph.num_vertices == 0 or graph.m <= 0:
        return 1, 0.0
    pool = runtime.procpool()
    K = vertex_weights
    Q = K if quantities is None else quantities
    qual = quality or Quality("modularity", resolution)
    colors = color_graph(graph, seed=color_seed)

    rec = runtime.recorder
    if rec.enabled:
        rec.family("counter", "proc_pool_tasks_total",
                   "chunk tasks dispatched to the worker-process pool",
                   ("phase",))
        rec.family("counter", "mem_shm_bytes_total",
                   "bytes laid out in shared-memory arenas", ("phase",))
        rec.family("counter", "proc_worker_edges_total",
                   "edges the move scan read, by pool worker; \"parent\" "
                   "counts the batches below the pool gate, scanned in the "
                   "parent", ("worker",))
    payload = {
        "m": float(graph.m),
        "quality": qual.kind,
        "resolution": float(qual.resolution),
        "loops": graph.has_self_loops,
    }
    split = Schedule("static", 1)
    with _build_arena(graph, membership, K, Q, community_weights,
                      phase=phase) as arena:
        batch_buf = arena["batch"]
        best_c_buf = arena["best_community"]
        best_dq_buf = arena["best_delta"]

        def pool_scan(vs, deg):
            """Scan ``vs`` in the pool if it is large enough (else None)."""
            edges = int(deg.sum())
            if edges < POOL_MIN_EDGES:
                if rec.enabled:
                    rec.metric("proc_worker_edges_total", edges, "parent")
                return None
            B = int(vs.shape[0])
            batch_buf[:B] = vs
            spans = chunk_spans(B, split, pool.num_workers)
            results = pool.run("move_scan", [
                {"lo": s, "hi": e, **payload} for s, e in spans
            ])
            if rec.enabled:
                for r in results:
                    rec.worker(r.worker_id, "move_scan", r.start, r.end,
                               phase=phase, edges=int(r.value))
            pos = np.flatnonzero(best_dq_buf[:B] > 0.0)
            return pos, best_c_buf[pos], best_dq_buf[pos]

        pool.bind(arena.spec())
        try:
            C_shm = arena["membership"]
            Sigma_shm = arena["community_weights"]
            result = move_loop(
                graph, colors, C_shm, K, Q, Sigma_shm, tolerance,
                runtime=runtime,
                quality=qual,
                workspace=workspace,
                max_iterations=max_iterations,
                batch_size=batch_size,
                unprocessed_mask=unprocessed_mask,
                pruning=pruning,
                phase=phase,
                pool_scan=pool_scan,
            )
            # Propagate the shm state back into the caller's arrays.
            np.copyto(membership, C_shm)
            np.copyto(community_weights, Sigma_shm)
        finally:
            pool.release()
    return result
