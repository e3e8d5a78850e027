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
   hashtables (loop engine) or in one packed-key pair-sum per contiguous
   *range* of communities (batch engine — the prefix-sum-CSR analogue).

The batch engine splits the communities at the holey offsets into ranges
of about :data:`AGGREGATE_RANGE_EDGES` edges and sums one range at a
time from its members' rows, as Algorithm 4's parallel loop over
communities does, so its working set is one range, not the whole graph.
A community's members are listed in ascending vertex order, so every
``(source community, destination community)`` pair meets its edges in
the order a whole-graph edge list would, and the range's ``reduceat``
gives the bits of one whole-graph call.

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
from repro.graph.segments import ragged_positions
from repro.parallel.runtime import Runtime
from repro.parallel.scan import csr_offsets_from_counts
from repro.types import OFFSET_DTYPE, VERTEX_DTYPE, WEIGHT_DTYPE

__all__ = [
    "AGGREGATE_RANGE_EDGES",
    "aggregate_batch",
    "aggregate_loop",
    "community_ranges",
    "community_vertices_csr",
]

#: The batch engine sums one range of communities holding about this
#: many edges at a time (a range holds at least one community).  The
#: pass's transient is then a few times one range's edges on top of the
#: output (docs/PERFORMANCE.md, "Aggregation by community ranges").
AGGREGATE_RANGE_EDGES = 1 << 16


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


def community_ranges(offsets: np.ndarray, max_edges: int) -> np.ndarray:
    """Bounds ``[0, ..., k]`` of the ranges the communities are summed in.

    ``offsets`` are the ``k + 1`` holey-CSR row offsets.  Range ``j``
    starts at the first community whose row starts at or after
    ``j * max_edges``, so every range holds at least one community and
    about ``max_edges`` edges; a community larger than that is a range
    of its own.
    """
    k = offsets.shape[0] - 1
    cuts = np.searchsorted(
        offsets[:k], np.arange(max_edges, int(offsets[-1]), max_edges))
    return np.unique(np.concatenate(([0], cuts, [k])))


def _aggregate_range(graph: CSRGraph, C: np.ndarray, members: np.ndarray,
                     c0: int, c1: int, k: int, out: tuple) -> int:
    """Write super-vertices ``c0..c1-1``'s rows; return the pairs written.

    ``members`` lists the range's vertices community by community, each
    community's in ascending order; ``out`` is the holey output
    ``(offsets, targets, weights, degrees)``.  Self-edges are *included*
    (``self = true``), so intra-community weight lands on the
    super-vertex's self-loop.  The kernel is called directly, not through
    ``KernelWorkspace.pair_sums``: aggregation is not a counted kernel
    dispatch, and the committed metric snapshots pin those counts.
    """
    member_deg = graph.degrees[members]
    idx = ragged_positions(graph.offsets[members], member_deg)
    usrc, udst, usum = segment_pair_sums_packed(
        np.repeat(C[members] - c0, member_deg), C[graph.targets[idx]],
        graph.weights[idx], c1 - c0, k)
    # Placement into the holey CSR: the pairs come sorted by source, so
    # each super-vertex's row is written from its offset on.
    offsets, targets, weights, degrees = out
    deg = np.bincount(usrc, minlength=c1 - c0)
    pos = ragged_positions(offsets[c0:c1], deg)
    targets[pos] = udst
    weights[pos] = usum
    degrees[c0:c1] = deg
    return int(usrc.shape[0])


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

    # Community-vertices CSR (work: one pass over vertices + scan).  Its
    # member ordering doubles as the cost-model ordering below — no
    # second argsort of the membership.
    cv_offsets, cv_vertices = community_vertices_csr(C, k)
    runtime.record_parallel(
        graph.num_vertices, phase=phase, atomics=float(graph.num_vertices),
        per_item=1.0,
    )
    runtime.record_serial(float(k), phase=phase)

    # Overestimated super-vertex degrees: total degree of each community
    # (lines 8-9) — this is what makes the CSR holey.  Degree sums stay
    # exact in float64 far past any representable edge count.
    offsets = csr_offsets_from_counts(np.bincount(
        C, weights=graph.degrees, minlength=k).astype(OFFSET_DTYPE))
    capacity = int(offsets[-1])

    if capacity == 0:
        return CSRGraph(
            offsets,
            np.empty(0, dtype=VERTEX_DTYPE),
            np.empty(0, dtype=WEIGHT_DTYPE),
            degrees=np.zeros(k, dtype=OFFSET_DTYPE),
            validate=False,
        )

    # Group edge weights by (community(src), community(dst)), one range
    # of communities at a time — the batch equivalent of scanning every
    # member's edges into H_t (lines 11-16).
    targets = np.zeros(capacity, dtype=VERTEX_DTYPE)
    weights = np.zeros(capacity, dtype=WEIGHT_DTYPE)
    degrees = np.zeros(k, dtype=OFFSET_DTYPE)
    out = (offsets, targets, weights, degrees)
    bounds = community_ranges(offsets, AGGREGATE_RANGE_EDGES)
    edge_writes = 0
    for c0, c1 in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        if offsets[c1] > offsets[c0]:
            edge_writes += _aggregate_range(
                graph, C, cv_vertices[cv_offsets[c0]:cv_offsets[c1]],
                c0, c1, k, out)

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
        graph.degrees[cv_vertices],
        phase=phase,
        atomics=float(edge_writes),
        per_item=1.0,
    )
    runtime.record_serial(float(k), phase=phase)
    _report(runtime, k, edge_writes)
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
        graph.num_vertices, phase=phase, atomics=float(graph.num_vertices),
        per_item=1.0,
    )
    runtime.record_parallel(work, phase=phase, atomics=float(edge_writes))
    runtime.record_serial(float(2 * k), phase=phase)
    _report(runtime, k, edge_writes)
    return CSRGraph(offsets, targets, weights, degrees=degrees, validate=False)


def _report(runtime: Runtime, super_vertices: int, edge_writes: int) -> None:
    """Record one aggregation's totals: the aggregation phase's one
    report, shared by every engine."""
    rec = runtime.recorder
    if rec.enabled:
        rec.family("counter", "leiden_aggregate_super_vertices_total",
                   "super-vertices produced by aggregation")
        rec.family("counter", "leiden_aggregate_edge_writes_total",
                   "deduplicated super-edge writes")
        rec.count("aggregate_super_vertices", super_vertices)
        rec.count("aggregate_edge_writes", edge_writes)
