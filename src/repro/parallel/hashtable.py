"""Collision-free per-thread hashtable (``H_t`` of Algorithms 2-4).

GVE-Leiden sidesteps hash collisions entirely: community ids are dense
integers below the vertex count, so each thread owns a direct-indexed
table of ``capacity`` float64 slots plus a compact list of the keys it has
touched.  ``clear()`` only resets the touched slots, making repeated use
O(keys) instead of O(capacity) — the property that makes per-thread
preallocation worthwhile.  Each instance owns its own numpy buffers, so
per-thread instances are "well separated in their memory addresses" as the
paper requires.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.types import ACCUM_DTYPE, VERTEX_DTYPE


class CollisionFreeHashtable:
    """Direct-indexed accumulator keyed by dense non-negative integers."""

    __slots__ = ("_values", "_keys", "_used", "_count")

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self._values = np.zeros(capacity, dtype=ACCUM_DTYPE)
        self._keys = np.empty(capacity, dtype=VERTEX_DTYPE)
        self._used = np.zeros(capacity, dtype=bool)
        self._count = 0

    @property
    def capacity(self) -> int:
        return self._values.shape[0]

    def __len__(self) -> int:
        """Number of distinct keys currently stored."""
        return self._count

    def accumulate(self, key: int, weight: float) -> None:
        """``H[key] += weight``, registering the key on first touch."""
        if not self._used[key]:
            self._used[key] = True
            self._keys[self._count] = key
            self._count += 1
        self._values[key] += weight

    def accumulate_many(self, keys: np.ndarray, weights: np.ndarray) -> None:
        """Vectorized ``H[k] += w`` for parallel key/weight arrays."""
        keys = np.asarray(keys)
        fresh = np.unique(keys[~self._used[keys]])
        if fresh.size:
            self._used[fresh] = True
            self._keys[self._count : self._count + fresh.size] = fresh
            self._count += fresh.size
        np.add.at(self._values, keys, np.asarray(weights, dtype=ACCUM_DTYPE))

    def get(self, key: int, default: float = 0.0) -> float:
        """Current accumulated value for ``key``."""
        if 0 <= key < self.capacity and self._used[key]:
            return float(self._values[key])
        return default

    def __contains__(self, key: int) -> bool:
        return 0 <= int(key) < self.capacity and bool(self._used[key])

    def keys(self) -> np.ndarray:
        """The touched keys, in first-touch order (a view; do not mutate)."""
        return self._keys[: self._count]

    def values(self) -> np.ndarray:
        """Values parallel to :meth:`keys`."""
        return self._values[self.keys()]

    def items(self) -> Iterator[Tuple[int, float]]:
        """Iterate ``(key, value)`` pairs in first-touch order."""
        keys = self.keys()
        vals = self._values[keys]
        for k, v in zip(keys.tolist(), vals.tolist()):
            yield k, v

    def clear(self) -> None:
        """Reset, touching only the used slots (O(len), not O(capacity))."""
        keys = self.keys()
        self._values[keys] = 0.0
        self._used[keys] = False
        self._count = 0

    def to_dict(self) -> dict[int, float]:
        """Copy out as a plain dict (test/debug helper)."""
        return {int(k): float(v) for k, v in self.items()}
