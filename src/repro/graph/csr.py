"""Weighted CSR graph, including the *holey* variant used by aggregation.

A CSR (Compressed Sparse Row) graph stores, for each vertex ``i``, its
outgoing edges in ``targets[offsets[i]:offsets[i] + degrees[i]]`` with
matching ``weights``.  In the ordinary (dense) case
``degrees[i] == offsets[i+1] - offsets[i]`` and the edge arrays have no
gaps.  The aggregation phase of GVE-Leiden (Algorithm 4) instead
*overestimates* each super-vertex degree, producing a **holey CSR** whose
rows have unused slack at the end; tracking the true ``degrees`` array
makes that representation first-class instead of forcing a compaction
after every aggregation.

Undirected graphs are stored with both edge directions present, matching
the paper's convention (|E| counts edges after adding reverse edges).
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.errors import GraphStructureError
from repro.graph.ops import (
    as_edge_arrays,
    group_edges,
    row_offsets,
    vertex_count,
)
from repro.observability.recorder import active, record_csr
from repro.types import (
    ACCUM_DTYPE,
    OFFSET_DTYPE,
    VERTEX_DTYPE,
    WEIGHT_DTYPE,
    AccumArray,
    OffsetArray,
    VertexArray,
    WeightArray,
)


class CSRGraph:
    """An immutable weighted graph in CSR form.

    Parameters
    ----------
    offsets:
        ``int64`` array of length ``n + 1``; row ``i`` starts at
        ``offsets[i]``.
    targets:
        ``int32`` array of edge targets (may contain slack for holey CSR).
    weights:
        ``float32`` array parallel to ``targets``.
    degrees:
        Optional ``int32`` per-vertex edge counts.  When omitted, rows are
        assumed dense (``degrees = diff(offsets)``).
    validate:
        When true (default) cheap structural checks are performed.
    """

    __slots__ = (
        "offsets",
        "targets",
        "weights",
        "degrees",
        "_vertex_weights",
        "_total_weight",
        "_fingerprint",
        "_has_self_loops",
    )

    def __init__(
        self,
        offsets,
        targets,
        weights,
        degrees=None,
        *,
        validate: bool = True,
    ) -> None:
        self.offsets: OffsetArray = np.ascontiguousarray(offsets, dtype=OFFSET_DTYPE)
        self.targets: VertexArray = np.ascontiguousarray(targets, dtype=VERTEX_DTYPE)
        self.weights: WeightArray = np.ascontiguousarray(weights, dtype=WEIGHT_DTYPE)
        if degrees is None:
            degrees = np.diff(self.offsets)
        self.degrees: OffsetArray = np.ascontiguousarray(degrees, dtype=OFFSET_DTYPE)
        self._vertex_weights: AccumArray | None = None
        self._total_weight: float | None = None
        self._fingerprint: str | None = None
        self._has_self_loops: bool | None = None
        # The arrays are allocations of the active recorder's current
        # phase (the aggregate phase for super-graphs, "other" for
        # loads).  Views handed in by a caller count too — the memory
        # report models logical ownership, not malloc calls, which keeps
        # it deterministic.
        rec = active()
        if rec.enabled:
            record_csr(rec, self)
        if validate:
            self._check_structure()

    # -- construction ----------------------------------------------------

    @classmethod
    def from_coo(
        cls,
        sources,
        targets,
        weights=None,
        *,
        num_vertices: int | None = None,
    ) -> "CSRGraph":
        """Build a CSR graph from a COO edge list (already symmetric).

        Edges are *not* deduplicated or symmetrized here; use
        :func:`repro.graph.builder.build_csr_from_edges` for that.  Each
        row keeps its edges in input order: one sort of packed keys
        (:func:`repro.graph.ops.group_edges`) groups them by source.
        Raises :class:`GraphStructureError` for an id outside
        ``[0, num_vertices)``.
        """
        src, dst, wgt = as_edge_arrays(sources, targets, weights)
        n = vertex_count(src, dst, num_vertices)
        src, dst, wgt = group_edges(src, dst, wgt, reduce=None)
        return cls(row_offsets(src, n), dst, wgt)

    # -- invariants ------------------------------------------------------

    def _check_structure(self) -> None:
        n = self.num_vertices
        if self.offsets.ndim != 1 or self.offsets.shape[0] < 1:
            raise GraphStructureError("offsets must be a 1-D array of length n+1")
        if self.degrees.shape[0] != n:
            raise GraphStructureError("degrees length must equal vertex count")
        if self.targets.shape != self.weights.shape:
            raise GraphStructureError("targets and weights must be parallel arrays")
        dense = True
        if n:
            row_capacity = np.diff(self.offsets)
            if np.any(row_capacity < 0):
                raise GraphStructureError("offsets must be non-decreasing")
            if np.any(self.degrees < 0) or np.any(self.degrees > row_capacity):
                raise GraphStructureError("degrees must fit inside row capacity")
            dense = bool(np.array_equal(self.degrees, row_capacity))
        if self.offsets[-1] > self.targets.shape[0]:
            raise GraphStructureError("offsets overrun the edge arrays")
        if self.num_edges:
            # Every slot between the first and last offset is used unless
            # some row has slack.
            if dense:
                tv = self.targets[self.offsets[0]:self.offsets[-1]]
            else:
                tv = self.targets[self._used_mask()]
            if tv.size and (tv.min() < 0 or tv.max() >= n):
                raise GraphStructureError("edge target out of range")

    def _used_mask(self) -> np.ndarray:
        """Boolean mask over the edge arrays selecting real (non-slack) slots."""
        from repro.graph.segments import ragged_positions

        mask = np.zeros(self.targets.shape[0], dtype=bool)
        mask[ragged_positions(self.offsets[:-1], self.degrees)] = True
        return mask

    # -- basic properties ------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``N``."""
        return self.offsets.shape[0] - 1

    @property
    def num_edges(self) -> int:
        """Number of stored (directed) edges ``|E|``.

        For an undirected graph stored both ways this counts each edge
        twice, matching the paper's |E| convention in Table 2.
        """
        return int(self.degrees.sum())

    @property
    def is_holey(self) -> bool:
        """True when rows carry slack (holey CSR from aggregation)."""
        return bool(np.any(self.degrees != np.diff(self.offsets)))

    @property
    def has_self_loops(self) -> bool:
        """True when a real (non-slack) edge joins a vertex to itself.

        Computed on first use and cached.  Rows are scanned in doubling
        chunks, so a graph with a loop among its first rows (every
        aggregated graph of a solve has one) answers from a short prefix.
        """
        if self._has_self_loops is None:
            from repro.graph.segments import ragged_positions

            n = self.num_vertices
            holey = self.is_holey
            found = False
            lo, step = 0, 1024
            while lo < n and not found:
                hi = min(lo + step, n)
                deg = self.degrees[lo:hi]
                src = np.repeat(np.arange(lo, hi, dtype=VERTEX_DTYPE), deg)
                if holey:
                    dst = self.targets[
                        ragged_positions(self.offsets[lo:hi], deg)]
                else:
                    dst = self.targets[self.offsets[lo]:self.offsets[hi]]
                found = bool(np.any(src == dst))
                lo, step = hi, 2 * step
            self._has_self_loops = found
        return self._has_self_loops

    @property
    def total_weight(self) -> float:
        """Sum of stored edge weights (= 2m for symmetric storage)."""
        if self._total_weight is None:
            self._total_weight = float(self.vertex_weights().sum())
        return self._total_weight

    @property
    def m(self) -> float:
        """Sum of undirected edge weights ``m`` (paper Section 3)."""
        return self.total_weight / 2.0

    # -- row access (views, never copies) ---------------------------------

    def neighbors(self, i: int) -> VertexArray:
        """Targets of vertex ``i`` as a view into the CSR arrays."""
        s = self.offsets[i]
        return self.targets[s : s + self.degrees[i]]

    def edge_weights(self, i: int) -> WeightArray:
        """Weights of vertex ``i``'s edges as a view."""
        s = self.offsets[i]
        return self.weights[s : s + self.degrees[i]]

    def edges(self, i: int) -> Tuple[VertexArray, WeightArray]:
        """``(targets, weights)`` views for vertex ``i``."""
        s = self.offsets[i]
        e = s + self.degrees[i]
        return self.targets[s:e], self.weights[s:e]

    def degree(self, i: int) -> int:
        """Number of edges incident to vertex ``i`` (out-degree)."""
        return int(self.degrees[i])

    def iter_edges(self) -> Iterator[Tuple[int, int, float]]:
        """Yield all stored ``(source, target, weight)`` triples."""
        for i in range(self.num_vertices):
            dst, wgt = self.edges(i)
            for j, w in zip(dst.tolist(), wgt.tolist()):
                yield i, j, float(w)

    # -- whole-graph views -------------------------------------------------

    def vertex_weights(self) -> AccumArray:
        """Weighted degree ``K_i`` of every vertex, in float64.

        The result is cached; callers must not mutate it.
        """
        if self._vertex_weights is None:
            if self.weights.shape[0] == 0 or self.num_vertices == 0:
                out = np.zeros(self.num_vertices, dtype=ACCUM_DTYPE)
            elif self.is_holey:
                from repro.graph.segments import ragged_indices

                seg, idx = ragged_indices(self.offsets[:-1], self.degrees)
                out = np.bincount(
                    seg,
                    weights=self.weights[idx].astype(ACCUM_DTYPE),
                    minlength=self.num_vertices,
                )
            else:
                # Row sums as differences of the weight prefix sum —
                # exact for empty rows, one vectorized pass.
                prefix = np.zeros(self.weights.shape[0] + 1, dtype=ACCUM_DTYPE)
                np.cumsum(self.weights, dtype=ACCUM_DTYPE, out=prefix[1:])
                out = prefix[self.offsets[1:]] - prefix[self.offsets[:-1]]
            self._vertex_weights = out
        return self._vertex_weights

    def fingerprint(self) -> str:
        """Content hash of the graph (hex digest, cached).

        Hashes the dense CSR arrays (``offsets``, ``targets``,
        ``weights``) plus the vertex count, so two independently built
        graphs with identical edge content produce the same digest while
        any structural or weight change produces a different one.  Holey
        CSR graphs are compacted first, making the digest independent of
        row slack.  This is what keys partitions by *graph identity*
        rather than object identity in :mod:`repro.service`.
        """
        if self._fingerprint is None:
            if self.is_holey:
                self._fingerprint = self.compact().fingerprint()
            else:
                import hashlib

                h = hashlib.blake2b(digest_size=16)
                h.update(str(self.num_vertices).encode())
                h.update(np.ascontiguousarray(self.offsets).tobytes())
                h.update(np.ascontiguousarray(self.targets).tobytes())
                h.update(np.ascontiguousarray(self.weights).tobytes())
                self._fingerprint = h.hexdigest()
        return self._fingerprint

    def endpoints(self) -> Tuple[VertexArray, VertexArray]:
        """``(sources, targets)`` of the real edges, without the weights.

        When rows carry no slack, ``targets`` is the graph's own array,
        not a copy: read it, never write it.
        """
        src = np.repeat(
            np.arange(self.num_vertices, dtype=VERTEX_DTYPE), self.degrees
        )
        if not self.is_holey:
            return src, self.targets
        return src, self.targets[self._used_mask()]

    def to_coo(self) -> Tuple[VertexArray, VertexArray, WeightArray]:
        """Return ``(sources, targets, weights)`` arrays of the real edges."""
        src, dst = self.endpoints()
        if not self.is_holey:
            return src, dst.copy(), self.weights.copy()
        return src, dst, self.weights[self._used_mask()]

    def compact(self) -> "CSRGraph":
        """Return an equivalent dense (non-holey) CSR graph."""
        if not self.is_holey:
            return self
        src, dst, wgt = self.to_coo()
        offsets = np.zeros(self.num_vertices + 1, dtype=OFFSET_DTYPE)
        np.cumsum(self.degrees, out=offsets[1:])
        return CSRGraph(offsets, dst, wgt, validate=False)

    # -- dunder ------------------------------------------------------------

    def __len__(self) -> int:
        return self.num_vertices

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "holey CSR" if self.is_holey else "CSR"
        return (
            f"CSRGraph({kind}, n={self.num_vertices}, "
            f"edges={self.num_edges}, m={self.m:.1f})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        if self.num_vertices != other.num_vertices:
            return False
        a = _canonical_coo(self)
        b = _canonical_coo(other)
        return all(np.array_equal(x, y) for x, y in zip(a, b))

    def __hash__(self) -> int:  # pragma: no cover - identity hash
        return id(self)


def _canonical_coo(g: CSRGraph):
    src, dst, wgt = g.to_coo()
    order = np.lexsort((dst, src))
    return src[order], dst[order], wgt[order]


def empty_csr(num_vertices: int = 0) -> CSRGraph:
    """An edgeless CSR graph on ``num_vertices`` vertices."""
    return CSRGraph(
        np.zeros(num_vertices + 1, dtype=OFFSET_DTYPE),
        np.empty(0, dtype=VERTEX_DTYPE),
        np.empty(0, dtype=WEIGHT_DTYPE),
        validate=False,
    )
