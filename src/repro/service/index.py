"""Query-side index over a partition: O(1) lookups, O(deg) aggregation.

A :class:`CommunityIndex` is built once per partition version and makes
the three serving queries cheap:

- ``community_of(v)`` — O(1) array read;
- ``members(c)`` — O(|c|) slice of a community→members CSR;
- ``neighbor_communities(graph, v)`` — O(deg(v) log deg(v)), aggregating
  edge weight per adjacent community.

The members CSR is the standard counting-sort layout (bincount of the
membership, prefix sum, stable argsort), mirroring the community-
vertices CSR the aggregation kernels build — but retained for the
lifetime of the partition version instead of one pass.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.types import OFFSET_DTYPE, VERTEX_DTYPE

__all__ = ["CommunityIndex"]


class CommunityIndex:
    """Immutable lookup structures for one membership vector."""

    __slots__ = ("membership", "offsets", "members_", "sizes")

    def __init__(self, membership) -> None:
        m = np.ascontiguousarray(membership, dtype=VERTEX_DTYPE)
        self.membership: np.ndarray = m
        k = int(m.max()) + 1 if m.shape[0] else 0
        counts = np.bincount(m, minlength=k).astype(OFFSET_DTYPE)
        self.offsets: np.ndarray = np.zeros(k + 1, dtype=OFFSET_DTYPE)
        np.cumsum(counts, out=self.offsets[1:])
        # Stable sort keeps members in ascending vertex order per row.
        self.members_: np.ndarray = np.argsort(
            m, kind="stable").astype(VERTEX_DTYPE)
        self.sizes: np.ndarray = counts

    # -- basic queries ----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.membership.shape[0]

    @property
    def num_communities(self) -> int:
        return self.offsets.shape[0] - 1

    def community_of(self, vertex: int) -> int:
        """Community id of ``vertex`` (O(1))."""
        return int(self.membership[vertex])

    def members(self, community: int) -> np.ndarray:
        """Vertices of ``community`` in ascending order (a view)."""
        s, e = self.offsets[community], self.offsets[community + 1]
        return self.members_[s:e]

    def members_slice(self, community: int) -> np.ndarray:
        """The server's ``members`` query: :meth:`members`.

        A method of its own so the query is one named entry point on
        the class (``benchmarks/e2e/e2e_trace.py`` wraps it by name to
        count index calls).
        """
        return self.members(community)

    def size(self, community: int) -> int:
        return int(self.sizes[community])

    def neighbor_communities(
        self, graph: CSRGraph, vertex: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Adjacent communities of ``vertex`` and total edge weight to each.

        Returns ``(community_ids, weights)`` sorted by community id;
        ``vertex``'s own community appears when it has intra-community
        edges.  O(deg log deg) via one small sort over the vertex's row.
        """
        nbrs, wgts = graph.edges(vertex)
        if nbrs.shape[0] == 0:
            return (np.empty(0, dtype=VERTEX_DTYPE),
                    np.empty(0, dtype=np.float64))
        comms = self.membership[nbrs]
        order = np.argsort(comms, kind="stable")
        sorted_comms = comms[order]
        boundaries = np.ones(sorted_comms.shape[0], dtype=bool)
        boundaries[1:] = sorted_comms[1:] != sorted_comms[:-1]
        starts = np.flatnonzero(boundaries)
        totals = np.add.reduceat(
            wgts[order].astype(np.float64), starts)
        return sorted_comms[starts].copy(), totals

    # -- accounting -------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Bytes held by the index arrays (the store's budget unit)."""
        return int(self.membership.nbytes + self.offsets.nbytes
                   + self.members_.nbytes + self.sizes.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CommunityIndex(n={self.num_vertices}, "
                f"communities={self.num_communities})")
