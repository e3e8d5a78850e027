"""Partition (community membership) utilities."""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.errors import GraphStructureError
from repro.types import VERTEX_DTYPE

#: :func:`renumber_membership` takes its O(n) path when every id is below
#: this multiple of the input length.
DENSE_RENUMBER_SPAN = 4


def check_membership(membership, num_vertices: int) -> np.ndarray:
    """Validate and coerce a membership array; community ids must be >= 0."""
    C = np.asarray(membership, dtype=VERTEX_DTYPE).ravel()
    if C.shape[0] != num_vertices:
        raise GraphStructureError(
            f"membership has {C.shape[0]} entries for {num_vertices} vertices"
        )
    if C.shape[0] and C.min() < 0:
        raise GraphStructureError("community ids must be non-negative")
    return C


def count_communities(membership) -> int:
    """Number of distinct community ids |Γ|."""
    C = np.asarray(membership)
    if C.shape[0] == 0:
        return 0
    return int(np.unique(C).shape[0])


def community_sizes(membership) -> np.ndarray:
    """Sizes of the *present* communities, indexed by compact community id.

    ``community_sizes(renumber_membership(C)[0])`` is dense; for raw
    memberships absent ids are dropped.
    """
    C = np.asarray(membership)
    if C.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    counts = np.bincount(C)
    return counts[counts > 0]


def renumber_membership(membership) -> tuple[np.ndarray, np.ndarray]:
    """Compact community ids to ``0..k-1`` (Algorithm 1, line 11).

    Returns ``(renumbered, old_ids)`` where ``old_ids[new] == old``.
    Renumbering is by ascending old id, which is deterministic and
    order-independent — the parallel renumbering GVE uses.  Ids below
    :data:`DENSE_RENUMBER_SPAN` times the input length are marked in a
    flag array and renumbered by its prefix sum, in O(n); others (and
    negative ids) go through ``np.unique``.
    """
    C = np.asarray(membership, dtype=VERTEX_DTYPE)
    top = int(C.max()) if C.shape[0] else -1
    if 0 <= top < DENSE_RENUMBER_SPAN * C.shape[0] and C.min() >= 0:
        present = np.zeros(top + 1, dtype=bool)
        present[C] = True
        new_ids = np.cumsum(present, dtype=VERTEX_DTYPE)
        new_ids -= 1
        return new_ids[C], np.flatnonzero(present).astype(VERTEX_DTYPE)
    old_ids, renumbered = np.unique(C, return_inverse=True)
    return renumbered.astype(VERTEX_DTYPE), old_ids.astype(VERTEX_DTYPE)


def groups_from_membership(membership) -> Dict[int, List[int]]:
    """Mapping community id -> sorted member vertex list (test helper)."""
    C = np.asarray(membership)
    groups: Dict[int, List[int]] = {}
    order = np.argsort(C, kind="stable")
    for v in order.tolist():
        groups.setdefault(int(C[v]), []).append(v)
    return groups


def membership_from_groups(groups: Dict[int, List[int]], num_vertices: int) -> np.ndarray:
    """Inverse of :func:`groups_from_membership`."""
    C = np.full(num_vertices, -1, dtype=VERTEX_DTYPE)
    for cid, members in groups.items():
        for v in members:
            if C[v] != -1:
                raise GraphStructureError(f"vertex {v} assigned twice")
            C[v] = cid
    if (C == -1).any():
        raise GraphStructureError("some vertices are unassigned")
    return C
