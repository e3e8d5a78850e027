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
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np

from repro.core.aggregate import aggregate_batch, aggregate_loop
from repro.core.config import LeidenConfig
from repro.core.dendrogram import Dendrogram
from repro.core.local_move import local_move_batch, local_move_loop
from repro.core.local_move_process import local_move_process
from repro.core.quality import Quality
from repro.core.refine import refine_batch, refine_loop
from repro.core.result import (
    PHASE_AGGREGATE,
    PHASE_LOCAL_MOVE,
    PHASE_OTHER,
    PHASE_REFINE,
    LeidenResult,
    PassStats,
)
from repro.errors import GraphStructureError
from repro.graph.csr import CSRGraph
from repro.graph.reorder import order_ranks as _order_ranks
from repro.graph.reorder import vertex_order as _vertex_order
from repro.metrics.partition import check_membership, renumber_membership
from repro.observability import memtrack
from repro.parallel.rng import Xorshift32
from repro.parallel.runtime import Runtime
from repro.parallel.simthread import WorkLedger
from repro.types import VERTEX_DTYPE

__all__ = ["leiden"]

#: Engines that drive the vectorized batch kernels for the refine and
#: aggregate phases (the process engine parallelizes local-moving across
#: worker processes and runs the remaining phases on the batch path, so
#: end-to-end membership matches ``"batch"`` bitwise).
_BATCH_LIKE = ("batch", "process")


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
    """
    if validate_input:
        from repro.graph.validate import validate_csr

        validate_csr(graph, require_positive_weights=False)
    n0 = graph.num_vertices
    if initial_membership is not None:
        initial_membership = check_membership(initial_membership, n0)
    first_unprocessed = _affected_mask(affected, n0)
    cfg = config or LeidenConfig()
    if cfg.relabel != "none":
        return _leiden_relabeled(
            graph, cfg,
            runtime=runtime,
            initial_membership=initial_membership,
            affected=first_unprocessed,
        )
    rt = runtime or Runtime(num_threads=1, seed=cfg.seed)
    tracer = rt.tracer
    rng = Xorshift32(cfg.seed)
    qual = Quality(cfg.quality, cfg.resolution)

    C_top = np.arange(n0, dtype=VERTEX_DTYPE)
    dendrogram = Dendrogram()
    passes: list[PassStats] = []
    wall_phase: Dict[str, float] = {p: 0.0 for p in
                                    (PHASE_LOCAL_MOVE, PHASE_REFINE,
                                     PHASE_AGGREGATE, PHASE_OTHER)}
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

    run_span = tracer.push(
        "leiden", vertices=int(n0), edges=int(graph.num_edges),
        engine=cfg.engine, quality=cfg.quality,
    )
    # Activate the runtime's memory ledger for the run so buffer owners
    # constructed deep inside the phases (super-graph CSR arrays, permute
    # transients) can record allocations without threading the ledger
    # through every call.  Entered/exited manually to share the existing
    # try/finally.
    _mem_scope = memtrack.activate(rt.memory)
    _mem_scope.__enter__()
    try:
        for pass_index in range(cfg.max_passes):
            pass_ledger = WorkLedger()
            saved_ledger = rt.ledger
            rt.ledger = pass_ledger
            pw: Dict[str, float] = {p: 0.0 for p in wall_phase}
            n = G.num_vertices
            pass_span = tracer.push("pass", index=pass_index, vertices=int(n))

            # -- initialization (line 4) -------------------------------------
            t0 = time.perf_counter()
            with tracer.span("init"):
                if cfg.engine in _BATCH_LIKE:
                    # One workspace per pass: the kernel scratch map is
                    # allocated here and reused by every batch of the move
                    # and refine phases — the analogue of the paper's
                    # up-front per-thread hashtable allocation.
                    workspace = rt.workspace(n, phase=PHASE_OTHER)
                else:
                    workspace = None
                K = G.vertex_weights().copy()
                Qv = qual.vertex_quantity(K, sizes)
                if init_membership is None:
                    C = np.arange(n, dtype=VERTEX_DTYPE)
                    Sigma = Qv.copy()
                else:
                    C = init_membership.copy()
                    Sigma = np.bincount(C, weights=Qv, minlength=n)
                rt.record_parallel(n, phase=PHASE_OTHER, per_item=1.0)
            pw[PHASE_OTHER] += time.perf_counter() - t0

            # -- local-moving phase (line 5) ----------------------------------
            t0 = time.perf_counter()
            with tracer.span("local_move", engine=cfg.engine) as mv_span:
                if cfg.vertex_order != "natural":
                    order = _vertex_order(G, cfg.vertex_order, seed=cfg.seed)
                    ranks = _order_ranks(order)
                else:
                    order = ranks = None
                if cfg.engine == "process":
                    li, _dq = local_move_process(
                        G, C, K, Sigma, tau,
                        runtime=rt,
                        pool=rt.procpool(),
                        max_iterations=cfg.max_iterations,
                        batch_size=cfg.batch_size,
                        quality=qual,
                        quantities=Qv,
                        unprocessed_mask=(first_unprocessed if pass_index == 0
                                          else None),
                        pruning=cfg.vertex_pruning,
                        order_ranks=ranks,
                        workspace=workspace,
                    )
                elif cfg.engine == "batch":
                    li, _dq = local_move_batch(
                        G, C, K, Sigma, tau,
                        runtime=rt,
                        max_iterations=cfg.max_iterations,
                        batch_size=cfg.batch_size,
                        quality=qual,
                        quantities=Qv,
                        unprocessed_mask=(first_unprocessed if pass_index == 0
                                          else None),
                        pruning=cfg.vertex_pruning,
                        order_ranks=ranks,
                        workspace=workspace,
                    )
                else:
                    li, _dq = local_move_loop(
                        G, C, K, Sigma, tau,
                        runtime=rt,
                        max_iterations=cfg.max_iterations,
                        quality=qual,
                        quantities=Qv,
                        unprocessed_mask=(first_unprocessed if pass_index == 0
                                          else None),
                        pruning=cfg.vertex_pruning,
                        order=order,
                    )
                mv_span.set(iterations=li)
            pw[PHASE_LOCAL_MOVE] += time.perf_counter() - t0

            # -- refinement phase (lines 6-7) -----------------------------------
            t0 = time.perf_counter()
            with tracer.span("refine", enabled=cfg.use_refinement) as rf_span:
                C_B = C.copy()
                if cfg.use_refinement:
                    C_ref = np.arange(n, dtype=VERTEX_DTYPE)
                    Sigma_ref = Qv.copy()
                    if cfg.engine in _BATCH_LIKE:
                        lj = refine_batch(
                            G, C_B, C_ref, K, Sigma_ref,
                            runtime=rt,
                            rng=rng,
                            refinement=cfg.refinement,
                            batch_size=cfg.batch_size,
                            guard=cfg.refine_guard,
                            quality=qual,
                            quantities=Qv,
                            workspace=workspace,
                        )
                    else:
                        lj = refine_loop(
                            G, C_B, C_ref, K, Sigma_ref,
                            runtime=rt,
                            rng=rng,
                            refinement=cfg.refinement,
                            quality=qual,
                            quantities=Qv,
                        )
                else:
                    # GVE-Louvain: aggregation follows the move phase directly.
                    C_ref = C_B
                    lj = 0
                rf_span.set(moves=lj)
            pw[PHASE_REFINE] += time.perf_counter() - t0

            # -- convergence / shrink checks (lines 8-10) ------------------------
            t0 = time.perf_counter()
            converged = li <= 1 and lj == 0
            C_ref_ren, ref_ids = renumber_membership(C_ref)
            num_comms = int(ref_ids.shape[0])
            # Convergence monitor: aggregation shrink ratio (communities
            # per vertex — 1.0 means no shrink) on the pass span, and the
            # community count as a counter track on the profiler timeline.
            pass_span.record("aggregation_shrink", num_comms / max(n, 1))
            m_passes.inc()
            m_shrink.observe(num_comms / max(n, 1))
            rt.profiler.mark("communities", num_comms)
            low_shrink = (
                cfg.aggregation_tolerance is not None
                and n > 0
                and num_comms / n > cfg.aggregation_tolerance
            )
            if converged or low_shrink:
                m_exits.labels("converged" if converged else "low_shrink").inc()
                # Algorithm 1 breaks before line 14's move-based remapping,
                # so the final dendrogram lookup (line 16) applies the
                # *refined* membership — which is internally connected by
                # construction (the CAS discipline of Algorithm 3).
                dendrogram.add_level(C_ref_ren)
                C_top = C_ref_ren[C_top]
                pw[PHASE_OTHER] += time.perf_counter() - t0
                rt.record_parallel(max(n, 1), phase=PHASE_OTHER, per_item=1.0)
                # C_top maps onto all num_comms refined communities.
                _close_pass(
                    passes, pass_index, n, num_comms,
                    li, lj, tau, pw, pass_ledger,
                )
                rt.ledger = saved_ledger
                rt.ledger.merge(pass_ledger)
                for p, s in pw.items():
                    wall_phase[p] += s
                pass_span.set(
                    communities=num_comms, move_iterations=li, refine_moves=lj,
                    converged=bool(converged), low_shrink=bool(low_shrink),
                )
                tracer.pop()
                break

            # -- dendrogram lookup (lines 11-12) ----------------------------------
            dendrogram.add_level(C_ref_ren)
            C_top = C_ref_ren[C_top]
            rt.record_parallel(n0, phase=PHASE_OTHER, per_item=1.0)
            pw[PHASE_OTHER] += time.perf_counter() - t0

            # -- aggregation phase (line 13) ------------------------------------------
            t0 = time.perf_counter()
            with tracer.span("aggregate") as ag_span, \
                    memtrack.phase_scope(PHASE_AGGREGATE):
                if cfg.engine in _BATCH_LIKE:
                    G = aggregate_batch(G, C_ref_ren, num_comms, runtime=rt)
                else:
                    G = aggregate_loop(G, C_ref_ren, num_comms, runtime=rt)
                sizes = np.bincount(C_ref_ren, weights=sizes, minlength=num_comms)
                ag_span.set(super_vertices=int(num_comms),
                            super_edges=int(G.num_edges))
            pw[PHASE_AGGREGATE] += time.perf_counter() - t0

            # -- next pass's initial membership (line 14) -------------------------------
            t0 = time.perf_counter()
            if cfg.vertex_label == "move" and cfg.use_refinement:
                # Each super-vertex (refined community) starts in the
                # community its members held after the local-moving phase.
                # Refinement merges only within a bound, so all members
                # write the same label.
                bound_labels = np.empty(num_comms, dtype=C_B.dtype)
                bound_labels[C_ref_ren] = C_B
                init_membership, _ = renumber_membership(bound_labels)
            else:
                init_membership = None
            tau = cfg.next_tolerance(tau)
            rt.record_serial(float(num_comms), phase=PHASE_OTHER)
            pw[PHASE_OTHER] += time.perf_counter() - t0

            _close_pass(
                passes, pass_index, n, num_comms, li, lj, tau, pw, pass_ledger
            )
            rt.ledger = saved_ledger
            rt.ledger.merge(pass_ledger)
            for p, s in pw.items():
                wall_phase[p] += s
            pass_span.set(
                communities=num_comms, move_iterations=li, refine_moves=lj,
                converged=False, low_shrink=False,
            )
            tracer.pop()
        else:
            # Pass budget exhausted: the dendrogram currently maps onto the
            # *refined* communities of the last pass; move-based labelling
            # composes the move-phase bound on top (Algorithm 1, line 16
            # after line 14's remapping).
            m_exits.labels("budget").inc()
            if cfg.vertex_label == "move" and init_membership is not None:
                dendrogram.add_level(init_membership)
                C_top = init_membership[C_top]

        # Final renumbering keeps ids compact regardless of the exit path.
        C_top, _ = renumber_membership(C_top)
        wall = time.perf_counter() - t_start
        final_comms = int(C_top.max()) + 1 if n0 else 0
        run_span.set(passes=len(passes), communities=final_comms)
        m_comms.set(final_comms)
    finally:
        _mem_scope.__exit__(None, None, None)
        # Close the run span (and any pass/phase
        # spans left open by an exception) so partial traces
        # still carry seconds.
        tracer.unwind(run_span)
        # A runtime we created ourselves has no outer lifetime managing
        # it — reap its worker pool rather than leave daemons behind.
        if runtime is None:
            rt.close()
    return LeidenResult(
        membership=C_top,
        dendrogram=dendrogram,
        passes=passes,
        ledger=rt.ledger,
        wall_seconds=wall,
        wall_phase_seconds=wall_phase,
    )


def _leiden_relabeled(
    graph: CSRGraph,
    cfg: LeidenConfig,
    *,
    runtime: Runtime | None,
    initial_membership,
    affected,
) -> LeidenResult:
    """The ``config.relabel`` pipeline: layout, solve relabeled, map back.

    1. Derive a community layout — from the provided warm partition when
       one is given (the service refresh path), otherwise from a cheap
       single-pass pilot solve;
    2. permute the graph so communities are contiguous
       (:func:`repro.graph.relabel.community_relabeling`);
    3. run the full solve on the relabeled graph;
    4. express the membership and dendrogram in original vertex ids via
       the inverse map.

    The mapped-back membership is a valid partition of the original
    graph with *bit-identical* quality to the relabeled solve's
    (``Q(G, M[inv]) == Q(G', M)`` exactly — quality sums are invariant
    under vertex renaming).  The asynchronous engines' trajectories are
    id-dependent (coloring priorities, tie-breaks), so the partition may
    legitimately differ from a ``relabel="none"`` run's; both are valid
    GVE-Leiden outputs of the same graph.
    """
    from repro.graph.relabel import community_relabeling

    base_cfg = cfg.with_(relabel="none")
    own_runtime = runtime is None
    rt = runtime or Runtime(num_threads=1, seed=cfg.seed)
    t_start = time.perf_counter()
    try:
        # -- layout source: warm partition or pilot pass -----------------
        if initial_membership is not None:
            warm, _ = renumber_membership(initial_membership)
            levels = [warm]
            pilot = None
        else:
            warm = None
            pilot = leiden(graph, base_cfg.with_(max_passes=1), runtime=rt)
            levels = (pilot.dendrogram.memberships()
                      if pilot.dendrogram.num_levels
                      else [pilot.membership])
        relab = community_relabeling(graph, levels, mode=cfg.relabel)

        # -- permute (charged as serial edge-array traffic) --------------
        t0 = time.perf_counter()
        with memtrack.activate(rt.memory):
            relabeled, inv = graph.permute(relab.perm)
        rt.record_serial(
            float(graph.num_vertices + graph.num_edges), phase=PHASE_OTHER)
        permute_seconds = time.perf_counter() - t0

        # -- main solve on the relabeled graph ---------------------------
        result = leiden(
            relabeled, base_cfg,
            runtime=rt,
            initial_membership=(relab.to_relabeled(warm)
                                if warm is not None else None),
            affected=affected[relab.perm] if affected is not None else None,
        )
    finally:
        if own_runtime:
            rt.close()

    # -- map back to original ids ---------------------------------------
    membership = relab.to_original(result.membership)
    dendrogram = Dendrogram()
    if result.dendrogram.num_levels:
        dendrogram.add_level(result.dendrogram.level(0)[inv])
        for i in range(1, result.dendrogram.num_levels):
            dendrogram.add_level(result.dendrogram.level(i))

    wall_phase: Dict[str, float] = dict(result.wall_phase_seconds)
    if pilot is not None:
        for p, s in pilot.wall_phase_seconds.items():
            wall_phase[p] = wall_phase.get(p, 0.0) + s
    wall_phase[PHASE_OTHER] = (
        wall_phase.get(PHASE_OTHER, 0.0) + permute_seconds)
    return LeidenResult(
        membership=membership,
        dendrogram=dendrogram,
        passes=result.passes,
        ledger=result.ledger,
        wall_seconds=time.perf_counter() - t_start,
        wall_phase_seconds=wall_phase,
        relabeling=relab,
    )


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


def _close_pass(passes, index, n, num_comms, li, lj, tau, pw, ledger) -> None:
    passes.append(
        PassStats(
            index=index,
            num_vertices=n,
            num_communities=num_comms,
            move_iterations=li,
            refine_moves=lj,
            tolerance=tau,
            wall_phase_seconds=dict(pw),
            ledger=ledger,
        )
    )
