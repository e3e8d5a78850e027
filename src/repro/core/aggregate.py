"""Aggregation phase of GVE-Leiden (Algorithm 4).

Communities collapse into super-vertices.  The paper's optimizations are
all present:

1. the *community-vertices CSR* ``G'_C'`` (which vertices belong to each
   community) is built with a count + parallel exclusive scan + scatter;
2. the super-vertex graph ``G''`` is stored in a **holey CSR**: per-super-
   vertex capacity is overestimated as the community's total degree
   (count + exclusive scan), so edges can be written without a second
   compaction pass — rows keep slack at their tail;
3. per-community neighbor weights accumulate in per-thread collision-free
   hashtables (loop engine) or in one packed-key pair-sum over the
   ``(source community, destination community)`` of every edge (batch
   engine — the prefix-sum-CSR analogue).

Both engines return the same graph (identical offsets/degrees; edge order
within a row may differ between loop and batch).  The batch path is
bitwise-identical to one segmented sort-reduce, the tests' oracle.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core._kernels import segment_pair_sums_packed
from repro.core.local_move import scan_communities
from repro.core.result import PHASE_AGGREGATE
from repro.graph.csr import CSRGraph
from repro.parallel.runtime import Runtime
from repro.parallel.scan import csr_offsets_from_counts
from repro.types import OFFSET_DTYPE, VERTEX_DTYPE, WEIGHT_DTYPE

__all__ = ["aggregate_batch", "aggregate_loop", "community_vertices_csr"]


def community_vertices_csr(
    membership: np.ndarray, num_communities: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``G'_C'`` CSR: ``(offsets, vertices)`` grouped by community.

    ``vertices[offsets[c]:offsets[c+1]]`` lists community ``c``'s members
    in ascending vertex order (lines 3-6 of Algorithm 4: count, exclusive
    scan, atomic scatter — realized here as a stable argsort).
    """
    counts = np.bincount(membership, minlength=num_communities)
    offsets = csr_offsets_from_counts(counts)
    vertices = np.argsort(membership, kind="stable").astype(VERTEX_DTYPE)
    return offsets, vertices


def aggregate_batch(
    graph: CSRGraph,
    membership: np.ndarray,
    num_communities: int,
    *,
    runtime: Runtime,
    phase: str = PHASE_AGGREGATE,
) -> CSRGraph:
    """Vectorized aggregation; returns the holey-CSR super-vertex graph.

    ``membership`` must be renumbered to compact ids ``0..k-1``.
    """
    k = int(num_communities)
    C = membership
    src, dst, wgt = graph.to_coo()

    # Community-vertices CSR (work: one pass over vertices + scan).  Its
    # member ordering doubles as the cost-model ordering below — no
    # second argsort of the membership.
    _cv_offsets, cv_vertices = community_vertices_csr(C, k)
    runtime.record_parallel(
        np.ones(graph.num_vertices), phase=phase, atomics=float(graph.num_vertices)
    )
    runtime.record_serial(float(k), phase=phase)

    # Overestimated super-vertex degrees: total degree of each community
    # (lines 8-9) — this is what makes the CSR holey.
    comm_total_degree = np.bincount(C[src], minlength=k).astype(OFFSET_DTYPE)
    offsets = csr_offsets_from_counts(comm_total_degree)

    if src.shape[0] == 0:
        return CSRGraph(
            offsets,
            np.empty(0, dtype=VERTEX_DTYPE),
            np.empty(0, dtype=WEIGHT_DTYPE),
            degrees=np.zeros(k, dtype=OFFSET_DTYPE),
            validate=False,
        )

    # Group edge weights by (community(src), community(dst)) — the batch
    # equivalent of scanning every member's edges into H_t (lines 11-16).
    # Self-edges are *included* (``self = true``), so intra-community
    # weight lands on the super-vertex's self-loop.  The kernel is called
    # directly, not through ``KernelWorkspace.pair_sums``: aggregation is
    # not a counted kernel dispatch, and the committed metric snapshots
    # pin those counts.
    cs = C[src]
    cd = C[dst]
    usrc, udst, usum = segment_pair_sums_packed(cs, cd, wgt, k, k)
    udst = udst.astype(VERTEX_DTYPE)

    # Placement into the holey CSR: position = row offset + rank-in-row.
    degrees = np.bincount(usrc, minlength=k).astype(OFFSET_DTYPE)
    group_boundary = np.empty(usrc.shape[0], dtype=bool)
    group_boundary[0] = True
    np.not_equal(usrc[1:], usrc[:-1], out=group_boundary[1:])
    group_id = np.cumsum(group_boundary) - 1
    group_first = np.flatnonzero(group_boundary)
    rank = np.arange(usrc.shape[0], dtype=np.int64) - group_first[group_id]
    positions = offsets[usrc] + rank

    capacity = int(offsets[-1])
    targets = np.zeros(capacity, dtype=VERTEX_DTYPE)
    weights = np.zeros(capacity, dtype=WEIGHT_DTYPE)
    targets[positions] = udst
    weights[positions] = usum.astype(WEIGHT_DTYPE)

    # Work: every community scans its members' full edge lists, then
    # writes its deduplicated neighbor set atomically.  Costs are
    # recorded at member-vertex granularity (ordered by community, via
    # the community-vertices CSR built above): the total matches the
    # per-community loop exactly, and at paper scale — where even the
    # largest community is a tiny fraction of the graph — the chunked
    # load balance of the two formulations coincides, while
    # per-community items would overstate imbalance on the 1000x-smaller
    # stand-ins whose largest communities span whole chunks.
    runtime.record_parallel(
        graph.degrees[cv_vertices].astype(np.float64) + 1.0,
        phase=phase,
        atomics=float(usrc.shape[0]),
    )
    runtime.record_serial(float(k), phase=phase)
    if runtime.metrics.enabled:
        mr = runtime.metrics
        mr.counter("leiden_aggregate_super_vertices_total",
                   "super-vertices produced by aggregation").inc(k)
        mr.counter("leiden_aggregate_edge_writes_total",
                   "deduplicated super-edge writes").inc(usrc.shape[0])
    if runtime.tracer.enabled:
        runtime.tracer.count("aggregate_super_vertices", k)
        runtime.tracer.count("aggregate_edge_writes", usrc.shape[0])

    return CSRGraph(offsets, targets, weights, degrees=degrees, validate=False)


def aggregate_loop(
    graph: CSRGraph,
    membership: np.ndarray,
    num_communities: int,
    *,
    runtime: Runtime,
    phase: str = PHASE_AGGREGATE,
) -> CSRGraph:
    """Reference aggregation: the literal per-community hashtable loop."""
    k = int(num_communities)
    C = membership
    cv_offsets, cv_vertices = community_vertices_csr(C, k)

    # Overestimate degrees (communityTotalDegree + exclusive scan) — a
    # bincount-based scatter; degree sums stay exact in float64 far past
    # any representable edge count.
    comm_total_degree = np.bincount(
        C, weights=graph.degrees, minlength=k
    ).astype(OFFSET_DTYPE)
    offsets = csr_offsets_from_counts(comm_total_degree)

    capacity = int(offsets[-1])
    targets = np.zeros(capacity, dtype=VERTEX_DTYPE)
    weights = np.zeros(capacity, dtype=WEIGHT_DTYPE)
    degrees = np.zeros(k, dtype=OFFSET_DTYPE)

    tables = runtime.hashtables(k)
    work = np.ones(k, dtype=np.float64)
    edge_writes = 0
    for c in range(k):
        table = tables[c % len(tables)]
        table.clear()
        members = cv_vertices[cv_offsets[c] : cv_offsets[c + 1]]
        for i in members.tolist():
            scan_communities(table, graph, C, i, include_self=True)
            work[c] += graph.degree(i)
        pos = int(offsets[c])
        for d, w in table.items():
            targets[pos] = d
            weights[pos] = w
            pos += 1
            edge_writes += 1
        degrees[c] = pos - offsets[c]

    runtime.record_parallel(
        np.ones(graph.num_vertices), phase=phase, atomics=float(graph.num_vertices)
    )
    runtime.record_parallel(work, phase=phase, atomics=float(edge_writes))
    runtime.record_serial(float(2 * k), phase=phase)
    if runtime.metrics.enabled:
        mr = runtime.metrics
        mr.counter("leiden_aggregate_super_vertices_total",
                   "super-vertices produced by aggregation").inc(k)
        mr.counter("leiden_aggregate_edge_writes_total",
                   "deduplicated super-edge writes").inc(edge_writes)
    if runtime.tracer.enabled:
        runtime.tracer.count("aggregate_super_vertices", k)
        runtime.tracer.count("aggregate_edge_writes", edge_writes)

    return CSRGraph(offsets, targets, weights, degrees=degrees, validate=False)
