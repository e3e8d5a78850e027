"""Dendrogram: the per-pass community mappings and their flattening.

Each Leiden pass maps the vertices of the current (super-vertex) graph to
renumbered communities; the communities become next pass's vertices.  The
sequence of those mappings is a dendrogram, and the "dendrogram lookup" of
Algorithm 1 (lines 12 and 16) composes them down to the original vertices:
``C ← C'[C]``.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from repro.errors import GraphStructureError
from repro.types import VERTEX_DTYPE


class Dendrogram:
    """An ordered list of level mappings (vertex-of-level -> community)."""

    def __init__(self) -> None:
        self._levels: List[np.ndarray] = []

    def add_level(self, mapping) -> None:
        """Append one pass's renumbered community mapping.

        ``mapping[i]`` is the community (= next level's vertex id) of
        vertex ``i`` at this level; ids must be compact ``0..k-1``.
        """
        arr = np.asarray(mapping, dtype=VERTEX_DTYPE)
        if arr.ndim != 1:
            raise GraphStructureError("level mapping must be 1-D")
        if arr.shape[0]:
            k = int(arr.max()) + 1
            if arr.min() < 0:
                raise GraphStructureError("community ids must be non-negative")
            # More ids than entries cannot all be present: say so before
            # allocating the marks.
            surjective = k <= arr.shape[0]
            if surjective:
                present = np.zeros(k, dtype=bool)
                present[arr] = True
                surjective = bool(present.all())
            if not surjective:
                raise GraphStructureError("level mapping must be surjective onto 0..k-1")
        if self._levels and arr.shape[0] != self.num_communities(-1):
            raise GraphStructureError(
                "level size must equal previous level's community count"
            )
        self._levels.append(arr)

    # -- queries ---------------------------------------------------------------

    @property
    def num_levels(self) -> int:
        return len(self._levels)

    def level(self, index: int) -> np.ndarray:
        """The mapping at ``index`` (negative indices allowed)."""
        return self._levels[index]

    def num_communities(self, index: int) -> int:
        """Community count at level ``index``."""
        lvl = self._levels[index]
        return int(lvl.max()) + 1 if lvl.shape[0] else 0

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self._levels)

    def __len__(self) -> int:
        return len(self._levels)

    # -- lookup --------------------------------------------------------------------

    def flatten(self, upto: int | None = None) -> np.ndarray:
        """Compose levels ``[0, upto)`` into an original-vertex membership.

        ``upto=None`` composes all levels.  This is the repeated
        ``C ← C'[C]`` dendrogram lookup of Algorithm 1.
        """
        if not self._levels:
            raise GraphStructureError("empty dendrogram")
        end = self.num_levels if upto is None else upto
        membership = self._levels[0].copy()
        for lvl in self._levels[1:end]:
            membership = lvl[membership]
        return membership

    def memberships(self) -> List[np.ndarray]:
        """Original-vertex membership after each pass (coarse to coarser)."""
        return [self.flatten(upto=i + 1) for i in range(self.num_levels)]
