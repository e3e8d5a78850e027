"""High-level graph construction pipeline.

``build_csr_from_edges`` is the one-stop entry point: it takes raw edge
arrays (or an iterable of tuples) and applies the same normalization the
paper applies to its datasets — "we ensure edges to be undirected and
weighted with a default of 1" (Section 5.1.3) — i.e. symmetrize, coalesce
parallel edges, and freeze into CSR.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro.errors import GraphStructureError
from repro.graph.csr import CSRGraph
from repro.graph.ops import as_edge_arrays, group_edges, row_offsets, vertex_count


def build_csr_from_edges(
    sources,
    targets,
    weights=None,
    *,
    num_vertices: int | None = None,
    symmetrize: bool = True,
    coalesce: str | None = "sum",
    drop_self_loops: bool = False,
) -> CSRGraph:
    """Normalize an edge list and build a :class:`CSRGraph`.

    One sort of packed keys (:func:`repro.graph.ops.group_edges`)
    symmetrizes, coalesces and groups the rows, and one ``bincount``
    gives their offsets.

    Parameters
    ----------
    sources, targets, weights:
        Parallel edge arrays; ``weights`` defaults to all ones.
    num_vertices:
        Vertex count; inferred as ``max id + 1`` when omitted.
    symmetrize:
        Add reverse edges (undirected storage).  Self-loops are kept
        single.
    coalesce:
        Merge parallel edges with this reduction (``"sum"``, ``"max"``,
        ``"first"``) or ``None`` to keep multi-edges.
    drop_self_loops:
        Remove ``(i, i)`` edges before anything else.

    Raises :class:`GraphStructureError` for a negative id, an id that
    does not fit in int32 or one that ``num_vertices`` cannot hold.
    """
    src, dst, wgt = as_edge_arrays(sources, targets, weights)
    num_vertices = vertex_count(src, dst, num_vertices)
    if drop_self_loops:
        keep = src != dst
        src, dst = src[keep], dst[keep]
        if wgt is not None:
            wgt = wgt[keep]
    src, dst, wgt = group_edges(src, dst, wgt, symmetrize=symmetrize,
                                reduce=coalesce)
    return CSRGraph(row_offsets(src, num_vertices), dst, wgt)


class GraphBuilder:
    """Incremental builder that buffers edges then freezes to CSR.

    Unlike :class:`repro.graph.adjacency.AdjacencyGraph`, the builder
    stores flat buffers and defers all normalization to
    :func:`build_csr_from_edges`, so building a graph from a million
    scattered ``add_edge`` calls stays cheap.
    """

    def __init__(self, num_vertices: int = 0) -> None:
        self._src: list[int] = []
        self._dst: list[int] = []
        self._wgt: list[float] = []
        self._min_vertices = int(num_vertices)

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> "GraphBuilder":
        """Buffer one undirected edge ``{u, v}``."""
        if u < 0 or v < 0:
            raise GraphStructureError("vertex ids must be non-negative")
        self._src.append(int(u))
        self._dst.append(int(v))
        self._wgt.append(float(weight))
        return self

    def add_edges(
        self, edges: Iterable[Tuple[int, int] | Tuple[int, int, float]]
    ) -> "GraphBuilder":
        """Buffer many edges; tuples may omit the weight."""
        for edge in edges:
            if len(edge) == 2:
                u, v = edge  # type: ignore[misc]
                self.add_edge(u, v)
            else:
                u, v, w = edge  # type: ignore[misc]
                self.add_edge(u, v, w)
        return self

    def build(
        self,
        *,
        num_vertices: int | None = None,
        symmetrize: bool = True,
        coalesce: str | None = "sum",
        drop_self_loops: bool = False,
    ) -> CSRGraph:
        """Freeze the buffered edges into a normalized CSR graph."""
        if num_vertices is None and self._min_vertices:
            inferred = 0
            if self._src:
                inferred = max(max(self._src), max(self._dst)) + 1
            num_vertices = max(self._min_vertices, inferred)
        return build_csr_from_edges(
            self._src,
            self._dst,
            self._wgt,
            num_vertices=num_vertices,
            symmetrize=symmetrize,
            coalesce=coalesce,
            drop_self_loops=drop_self_loops,
        )
