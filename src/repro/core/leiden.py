"""GVE-Leiden pass driver (Algorithm 1).

Each pass runs local-moving → refinement → (maybe) aggregation on the
current super-vertex graph:

1. initialize per-vertex weights ``K'`` and community weights ``Σ'``;
2. ``leidenMove`` optimizes the membership ``C'`` (Algorithm 2);
3. the result becomes the *community bound* ``C'_B``; membership resets
   to singletons and ``leidenRefine`` merges within bounds (Algorithm 3);
4. stop if globally converged (local-moving settled in one iteration and
   refinement merged nothing) or if communities shrank by less than the
   aggregation tolerance;
5. otherwise renumber, update the dendrogram, aggregate (Algorithm 4),
   seed the next pass's membership from the move phase (``move``-based
   labels, as Traag et al. recommend) or as singletons (``refine``-based),
   and scale the tolerance down (threshold scaling).

On the convergence and low-shrink exits the returned communities are the
refined partition of the final pass (Algorithm 1 breaks before line 14's
remapping), which is internally connected by construction; the
``vertex_label`` choice affects how each pass is *seeded* and the output
only when the pass budget is exhausted.

Every phase runs inside :meth:`Runtime.phase`, which opens its tracer
span, sets the memory ledger's active phase and adds its wall time to the
pass; :func:`_pass_scope` owns each pass's work ledger, span and
:class:`PassStats`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from functools import partial
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.core.aggregate import aggregate_batch, aggregate_loop
from repro.core.config import LeidenConfig
from repro.core.dendrogram import Dendrogram
from repro.core.local_move import local_move_batch, local_move_loop
from repro.core.local_move_process import local_move_process
from repro.core.quality import Quality
from repro.core.refine import refine_batch, refine_loop
from repro.core.result import (
    ALL_PHASES,
    PHASE_AGGREGATE,
    PHASE_LOCAL_MOVE,
    PHASE_OTHER,
    PHASE_REFINE,
    LeidenResult,
    PassStats,
)
from repro.errors import GraphStructureError
from repro.graph.csr import CSRGraph
from repro.metrics.partition import check_membership, renumber_membership
from repro.observability import memtrack
from repro.parallel.rng import Xorshift32
from repro.parallel.runtime import Runtime
from repro.types import VERTEX_DTYPE

__all__ = ["leiden"]


def leiden(
    graph: CSRGraph,
    config: LeidenConfig | None = None,
    *,
    runtime: Runtime | None = None,
    initial_membership=None,
    affected=None,
    validate_input: bool = False,
) -> LeidenResult:
    """Detect communities in ``graph`` with GVE-Leiden.

    ``graph`` must be undirected (symmetric edge storage); pass
    ``validate_input=True`` to verify that (and weight symmetry/
    finiteness) up front instead of silently computing on a directed
    graph.  Returns a
    :class:`repro.core.result.LeidenResult` whose ``membership`` holds a
    compact community id per vertex.

    ``initial_membership`` warm-starts the first pass from an existing
    partition instead of singletons, and ``affected`` (a boolean mask or
    vertex-id array) seeds the first pass's pruning flags so only the
    given vertices are initially reconsidered — together these are the
    primitives :mod:`repro.dynamic` builds its incremental update
    strategies on.  Both are checked before any work starts: a
    membership of the wrong length or with a negative id, a mask of the
    wrong shape, or a vertex id outside ``[0, n)`` raises
    :class:`~repro.errors.GraphStructureError`.

    When the pass budget runs out (``max_passes`` passes without a
    convergence or low-shrink exit) under ``vertex_label="move"``, the
    result composes the last pass's move-phase labels on top of its
    refined communities (Algorithm 1, line 16 after line 14).  That top
    level carries no connectivity guarantee: move-phase communities may
    be internally disconnected, as on ``webbase-2001`` at
    ``max_passes=1`` (11 of 2,436 communities).
    """
    if validate_input:
        from repro.graph.validate import validate_csr

        validate_csr(graph, require_positive_weights=False)
    n0 = graph.num_vertices
    if initial_membership is not None:
        initial_membership = check_membership(initial_membership, n0)
    first_unprocessed = _affected_mask(affected, n0)
    cfg = config or LeidenConfig()
    rt = runtime or Runtime(num_threads=1, seed=cfg.seed)
    rng = Xorshift32(cfg.seed)
    qual = Quality(cfg.quality, cfg.resolution)

    # The engine's phase functions, read from this module's namespace
    # once per call (the traced benchmark wraps them here).  The process
    # engine moves vertices on its pool and runs the other phases on the
    # batch path, so its membership matches ``"batch"`` bitwise.
    batched = cfg.engine != "loop"
    if batched:
        move = partial(local_move_process if cfg.engine == "process"
                       else local_move_batch, batch_size=cfg.batch_size)
        refine = partial(refine_batch, batch_size=cfg.batch_size,
                         guard=cfg.refine_guard)
        aggregate = aggregate_batch
    else:
        move, refine, aggregate = local_move_loop, refine_loop, aggregate_loop

    C_top = np.arange(n0, dtype=VERTEX_DTYPE)
    dendrogram = Dendrogram()
    passes: List[PassStats] = []
    wall_phase: Dict[str, float] = dict.fromkeys(ALL_PHASES, 0.0)
    t_start = time.perf_counter()

    G = graph
    if initial_membership is None:
        init_membership: np.ndarray | None = None
    else:
        init_membership, _ = renumber_membership(initial_membership)
    tau = cfg.initial_tolerance()
    # CPM tracks node sizes through aggregation (super-vertices count the
    # original vertices they contain); modularity ignores them.
    sizes = np.ones(n0, dtype=np.float64)

    # Metric instruments (shared no-ops when collection is disabled).
    m = rt.metrics
    m_passes = m.counter("leiden_passes_total", "Leiden passes executed")
    m_exits = m.counter(
        "leiden_pass_exits_total",
        "how the pass loop ended, by exit reason", ("reason",))
    m_shrink = m.histogram(
        "leiden_aggregation_shrink",
        "communities-per-vertex shrink ratio observed per pass")
    m_comms = m.gauge(
        "leiden_communities", "community count of the most recent run")

    # A runtime created here is closed on the way out, reaping its worker
    # pool.  The run's memory ledger is active for the whole solve, so
    # buffer owners built deep inside the phases (super-graph CSR arrays)
    # record allocations without threading it through.
    with (nullcontext() if runtime is not None else rt), \
            rt.tracer.span("leiden", vertices=int(n0),
                           edges=int(graph.num_edges), engine=cfg.engine,
                           quality=cfg.quality) as run_span, \
            memtrack.activate(rt.memory):
        for pass_index in range(cfg.max_passes):
            n = G.num_vertices
            with _pass_scope(rt, passes, wall_phase, pass_index,
                             n) as (stats, pass_span):
                pw = stats.wall_phase_seconds

                # -- initialization (line 4) ------------------------------
                with rt.phase(PHASE_OTHER, pw, "init"):
                    # One workspace per pass: the kernel scratch map
                    # is allocated here and reused by every batch of
                    # the move and refine phases — the analogue of
                    # the paper's up-front per-thread hashtables.
                    ws_kw = ({"workspace": rt.workspace(n, phase=PHASE_OTHER)}
                             if batched else {})
                    K = G.vertex_weights().copy()
                    Qv = qual.vertex_quantity(K, sizes)
                    if init_membership is None:
                        C = np.arange(n, dtype=VERTEX_DTYPE)
                        Sigma = Qv.copy()
                    else:
                        C = init_membership.copy()
                        Sigma = np.bincount(C, weights=Qv, minlength=n)
                    rt.record_parallel(n, phase=PHASE_OTHER, per_item=1.0)

                # -- local-moving phase (line 5) --------------------------
                with rt.phase(PHASE_LOCAL_MOVE, pw, "local_move",
                              engine=cfg.engine) as span:
                    li, _dq = move(
                        G, C, K, Sigma, tau,
                        runtime=rt,
                        max_iterations=cfg.max_iterations,
                        quality=qual,
                        quantities=Qv,
                        unprocessed_mask=(first_unprocessed
                                          if pass_index == 0 else None),
                        pruning=cfg.vertex_pruning,
                        **ws_kw,
                    )
                    span.set(iterations=li)

                # -- refinement phase (lines 6-7) -------------------------
                with rt.phase(PHASE_REFINE, pw, "refine",
                              enabled=cfg.use_refinement) as span:
                    C_B = C.copy()
                    if cfg.use_refinement:
                        C_ref = np.arange(n, dtype=VERTEX_DTYPE)
                        lj = refine(
                            G, C_B, C_ref, K, Qv.copy(),
                            runtime=rt,
                            rng=rng,
                            refinement=cfg.refinement,
                            quality=qual,
                            quantities=Qv,
                            **ws_kw,
                        )
                    else:
                        # GVE-Louvain: aggregation follows the move
                        # phase directly.
                        C_ref = C_B
                        lj = 0
                    span.set(moves=lj)

                # -- exit checks, dendrogram lookup (lines 8-12) ----------
                # Bookkeeping between phases runs under the pass span.
                with rt.phase(PHASE_OTHER, pw):
                    converged = li <= 1 and lj == 0
                    C_ref_ren, ref_ids = renumber_membership(C_ref)
                    num_comms = int(ref_ids.shape[0])
                    # Convergence monitor: aggregation shrink ratio
                    # (communities per vertex — 1.0 means no shrink)
                    # on the pass span, and the community count as a
                    # counter track on the profiler timeline.
                    pass_span.record("aggregation_shrink",
                                     num_comms / max(n, 1))
                    m_passes.inc()
                    m_shrink.observe(num_comms / max(n, 1))
                    rt.profiler.mark("communities", num_comms)
                    low_shrink = (
                        cfg.aggregation_tolerance is not None
                        and n > 0
                        and num_comms / n > cfg.aggregation_tolerance
                    )
                    done = converged or low_shrink
                    # On an exit Algorithm 1 breaks before line 14's
                    # move-based remapping, so the final lookup (line
                    # 16) applies the *refined* membership — which is
                    # internally connected by construction (the CAS
                    # discipline of Algorithm 3).
                    dendrogram.add_level(C_ref_ren)
                    C_top = C_ref_ren[C_top]
                    if done:
                        m_exits.labels(
                            "converged" if converged else "low_shrink").inc()
                    rt.record_parallel(max(n, 1) if done else n0,
                                       phase=PHASE_OTHER, per_item=1.0)

                if not done:
                    # -- aggregation phase (line 13) ----------------------
                    with rt.phase(PHASE_AGGREGATE, pw, "aggregate") as span:
                        G = aggregate(G, C_ref_ren, num_comms, runtime=rt)
                        sizes = np.bincount(C_ref_ren, weights=sizes,
                                            minlength=num_comms)
                        span.set(super_vertices=int(num_comms),
                                 super_edges=int(G.num_edges))

                    # -- next pass's initial membership (line 14) ---------
                    with rt.phase(PHASE_OTHER, pw):
                        if cfg.vertex_label == "move" and cfg.use_refinement:
                            # Each super-vertex (refined community) starts
                            # in the community its members held after the
                            # local-moving phase.  Refinement merges only
                            # within a bound, so all members write the
                            # same label.
                            bound_labels = np.empty(num_comms, dtype=C_B.dtype)
                            bound_labels[C_ref_ren] = C_B
                            init_membership, _ = renumber_membership(
                                bound_labels)
                        else:
                            init_membership = None
                        tau = cfg.next_tolerance(tau)
                        rt.record_serial(float(num_comms), phase=PHASE_OTHER)

                # Every pass closes here; one that aggregated carries the
                # τ the next pass starts with.
                stats.num_communities = num_comms
                stats.move_iterations = li
                stats.refine_moves = lj
                stats.tolerance = tau
                pass_span.set(
                    communities=num_comms, move_iterations=li,
                    refine_moves=lj, converged=bool(converged),
                    low_shrink=bool(low_shrink),
                )
            if done:
                break
        else:
            # Pass budget exhausted: the dendrogram maps onto the
            # *refined* communities of the last pass; move-based
            # labelling composes the move-phase bound on top
            # (Algorithm 1, line 16 after line 14's remapping).
            m_exits.labels("budget").inc()
            if cfg.vertex_label == "move" and init_membership is not None:
                dendrogram.add_level(init_membership)
                C_top = init_membership[C_top]

        # Final renumbering keeps ids compact regardless of the exit.
        C_top, _ = renumber_membership(C_top)
        wall = time.perf_counter() - t_start
        final_comms = int(C_top.max()) + 1 if n0 else 0
        run_span.set(passes=len(passes), communities=final_comms)
        m_comms.set(final_comms)
    return LeidenResult(
        membership=C_top,
        dendrogram=dendrogram,
        passes=passes,
        ledger=rt.ledger,
        wall_seconds=wall,
        wall_phase_seconds=wall_phase,
    )


@contextmanager
def _pass_scope(rt: Runtime, passes: List[PassStats],
                wall_phase: Dict[str, float], index: int,
                n: int) -> Iterator[Tuple[PassStats, object]]:
    """One pass: its own work ledger, its tracer span and its stats.

    Yields the pass's :class:`PassStats` (the caller fills in the counts
    and passes ``wall_phase_seconds`` to :meth:`Runtime.phase`) and the
    pass span.  A pass that completes is appended to ``passes``, its
    phase seconds are added to ``wall_phase`` and its ledger is merged
    into the run's; a pass that raises still restores the run's ledger
    and closes its span.
    """
    stats = PassStats(index=index, num_vertices=n, num_communities=0,
                      move_iterations=0, refine_moves=0, tolerance=0.0,
                      wall_phase_seconds=dict.fromkeys(ALL_PHASES, 0.0))
    run_ledger, rt.ledger = rt.ledger, stats.ledger
    try:
        with rt.tracer.span("pass", index=index, vertices=int(n)) as span:
            yield stats, span
        passes.append(stats)
        for phase, seconds in stats.wall_phase_seconds.items():
            wall_phase[phase] += seconds
        run_ledger.merge(stats.ledger)
    finally:
        rt.ledger = run_ledger


def _affected_mask(affected, n: int):
    """Validate the ``affected`` argument and normalize it to a boolean
    mask or None."""
    if affected is None:
        return None
    arr = np.asarray(affected)
    if arr.dtype == bool:
        if arr.shape != (n,):
            raise GraphStructureError(
                f"affected mask has shape {arr.shape} for {n} vertices")
        return arr
    if arr.ndim != 1 or (arr.size
                         and not np.issubdtype(arr.dtype, np.integer)):
        raise GraphStructureError(
            "affected must be a boolean mask or a 1-D array of vertex ids")
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise GraphStructureError(
            f"affected vertex ids must lie in [0, {n})")
    mask = np.zeros(n, dtype=bool)
    mask[arr.astype(np.intp)] = True
    return mask
