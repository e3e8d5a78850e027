"""Segmented gather helpers for CSR row batches.

The batch-parallel kernels repeatedly need "all edges of this set of
vertices" as flat arrays plus a parallel segment-id array.  This is the
standard vectorized ragged-gather trick: no Python loop, one ``repeat``
per output plus one ``arange``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["ragged_indices", "ragged_positions", "gather_rows"]


def ragged_positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ``flat_indices`` of :func:`ragged_indices`, without the
    segment ids.

    Output slot ``e`` of row ``k`` holds ``e`` plus the row's start minus
    the row's first output slot, so one ``repeat`` of that difference and
    one ``arange`` give every position.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    shift = np.array(starts, dtype=np.int64)
    shift[1:] -= np.cumsum(lengths[:-1])
    flat = np.repeat(shift, lengths)
    flat += np.arange(total, dtype=np.int64)
    return flat


def ragged_indices(starts: np.ndarray, lengths: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Flat indices of the concatenation of ``[starts[k], starts[k]+lengths[k])``.

    Returns ``(segment_ids, flat_indices)``: ``segment_ids[e]`` says which
    row edge-slot ``e`` came from, ``flat_indices[e]`` is its position in
    the underlying edge arrays.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    seg = np.repeat(np.arange(lengths.shape[0], dtype=np.int64), lengths)
    return seg, ragged_positions(starts, lengths)


def gather_rows(
    offsets: np.ndarray,
    degrees: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    rows: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All edges of ``rows``: ``(segment_ids, targets, weights)``.

    ``segment_ids[e]`` indexes into ``rows`` (not vertex ids), so
    ``rows[segment_ids]`` recovers per-edge source vertices.
    """
    seg, idx = ragged_indices(offsets[rows], degrees[rows])
    return seg, targets[idx], weights[idx]
