"""Shared segmented-array kernels for the batch-parallel phases.

The batch engine processes a *batch* of vertices at once — the set of
vertices the OpenMP threads would have in flight concurrently.  Per batch
it needs two primitives:

- :func:`segment_pair_sums_packed` — the vectorized equivalent of
  filling the per-thread hashtables: total edge weight from each batch
  vertex to each adjacent community (``K_{i→c}`` for all *c* at once);
- :func:`segmented_argmax_sorted` — "best community linked to i" across
  a batch, over the pair sums' sorted output.

The production pair sums pack each edge's ``(segment, community, input
position)`` into one int64 key and sort the keys with ``np.sort``.
Because every key is unique, whichever sort numpy picks gives the
stable ``(seg, comm)`` order; the position field recovers the input
order and ``np.add.reduceat`` sums each run of equal pairs.

Around the pair sums, :func:`scatter_add` (the Σ updates) and
:func:`segmented_argmax_sorted` (the best moves) cost only what they
touch: the scatter sums a batch's updates over the window of ids they
span when that window is small, and the argmax takes each segment's
maximum with one ``reduceat``.  Both are bitwise equal to their
oracles, the compaction formula on every input
(``repro.bench.kernels.scatter_add_compacted``) and
:func:`segmented_argmax`.

The **sort** family (``*_sort``, :func:`segmented_argmax`) builds
``seg * n + comm`` keys and pays a stable ``argsort`` / ``lexsort`` per
batch.  It is the tests' oracle and the packed kernel's path for inputs
whose fields need more than 63 bits.  The two are bitwise equal: same
pairs, same order (ascending ``(seg, comm)``), the same ``reduceat``
over the same weights in the same order, and the same tie-breaking.
The summation matters as much as the order: ``reduceat`` adds a run's
first weight to the sum of the rest, which it sums pairwise, so
``[a, b, c]`` gives ``a + (b + c)`` where a sequential ``bincount``
gives ``(a + b) + c``.  With one kernel and one summation, a chunk of a
batch gets exactly the batch's sums for its own rows.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.types import ACCUM_DTYPE

__all__ = [
    "compact_keys",
    "group_starts",
    "scatter_add",
    "segment_pair_sums",
    "segment_pair_sums_packed",
    "segment_pair_sums_sort",
    "segmented_argmax",
    "segmented_argmax_sorted",
]

#: :func:`scatter_add` accumulates over the window of ids the updates
#: span while it holds at most ``DENSE_GRID_FACTOR * len(idx)`` slots:
#: below that the zero/scan cost of the window-sized ``bincount`` is
#: dominated by the O(E) scatter passes, exactly like a collision-free
#: hashtable whose capacity is a small multiple of its occupancy.
DENSE_GRID_FACTOR = 4


def group_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Indices where each run of equal values starts (``sorted_keys`` sorted)."""
    boundary = np.empty(sorted_keys.shape[0], dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:])
    return np.flatnonzero(boundary)


def compact_keys(
    keys: np.ndarray,
    scratch_map: Optional[np.ndarray] = None,
    *,
    domain: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Map ``keys`` onto a dense ``0..u-1`` range, ascending-order preserving.

    Returns ``(compact, uniques)`` with ``uniques`` sorted ascending and
    ``uniques[compact] == keys``.  ``scratch_map`` is an int64 scratch
    array covering the key domain (one slot per possible key — the
    collision-free-hashtable "keys" array); when omitted, a fresh one of
    ``domain`` (default ``keys.max() + 1``) slots is allocated.  Only the
    ≤E slots named by ``keys`` are ever touched, so a preallocated map
    never needs clearing between calls: cost is O(E + u log u).
    """
    num = keys.shape[0]
    if num == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    if scratch_map is None:
        size = int(domain) if domain is not None else int(keys.max()) + 1
        scratch_map = np.empty(size, dtype=np.int64)
    positions = np.arange(num, dtype=np.int64)
    scratch_map[keys] = positions  # last occurrence of each key wins
    uniques = np.sort(keys[scratch_map[keys] == positions])
    scratch_map[uniques] = np.arange(uniques.shape[0], dtype=np.int64)
    return scratch_map[keys], uniques


def scatter_add(
    target: np.ndarray,
    idx: np.ndarray,
    weights: np.ndarray,
    scratch_map: Optional[np.ndarray] = None,
) -> None:
    """``target[idx] += weights`` with repeated indices, via ``bincount``.

    The bincount-based replacement for the hot-path ``np.add.at``
    scatter.  The sums accumulate with one ``bincount`` over the window
    ``[min(idx), max(idx)]`` of ids the updates span when it holds at
    most ``max(DENSE_GRID_FACTOR * len(idx), 1024)`` slots.  Otherwise
    the updates are sparse in a large target: the duplicate indices are
    compacted to a dense range, so only the ≤len(idx) distinct slots
    are touched.

    Each touched slot gets the same sum on both branches: its weights in
    input order, summed sequentially from 0, then added once.  A slot
    inside the window that no update names gets ``+ 0.0``, which can
    only turn a ``-0.0`` into ``+0.0``; ``==``, ``>`` and the digests do
    not tell the two apart.
    """
    if idx.shape[0] == 0:
        return
    bound = max(DENSE_GRID_FACTOR * idx.shape[0], 1024)
    lo = int(idx.min())
    hi = int(idx.max()) + 1
    if hi - lo <= bound:
        target[lo:hi] += np.bincount(
            idx - lo, weights=weights, minlength=hi - lo
        )
        return
    compact, uniques = compact_keys(
        idx, scratch_map, domain=target.shape[0]
    )
    target[uniques] += np.bincount(
        compact, weights=weights, minlength=uniques.shape[0]
    )


def segment_pair_sums(
    seg: np.ndarray,
    comm: np.ndarray,
    weights: np.ndarray,
    num_communities: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum ``weights`` grouped by ``(seg, comm)`` pairs (sort kernel).

    Returns ``(pair_seg, pair_comm, pair_sum)`` sorted by ``(seg, comm)``.
    ``seg`` values must be small non-negative ints (batch positions);
    ``comm`` values must be < ``num_communities``.
    """
    return segment_pair_sums_sort(seg, comm, weights, num_communities)


def segment_pair_sums_sort(
    seg: np.ndarray,
    comm: np.ndarray,
    weights: np.ndarray,
    num_communities: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """O(E log E) reference implementation over ``seg * n + comm`` keys."""
    if seg.shape[0] == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=ACCUM_DTYPE)
    key = seg.astype(np.int64) * np.int64(num_communities) + comm
    order = np.argsort(key, kind="stable")
    ksort = key[order]
    wsort = weights[order].astype(ACCUM_DTYPE)
    starts = group_starts(ksort)
    sums = np.add.reduceat(wsort, starts)
    ukey = ksort[starts]
    return ukey // num_communities, ukey % num_communities, sums


def segment_pair_sums_packed(
    seg: np.ndarray,
    comm: np.ndarray,
    weights: np.ndarray,
    num_segments: int,
    num_communities: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Production pair sums: one sort of packed ``(seg, comm, position)`` keys.

    Bitwise equal to :func:`segment_pair_sums_sort` (same pairs, same
    order, same sums).  Each edge's key packs its segment, its community
    and its input position into one int64, so every key is unique: any
    sort numpy picks yields the stable ``(seg, comm)`` order, the low
    field recovers the input positions and ``reduceat`` sums each run
    exactly as the oracle does.  ``seg`` need not be sorted;
    ``num_segments`` and ``num_communities`` bound ``seg`` and ``comm``.
    Inputs whose fields need more than 63 bits go to the oracle itself.
    """
    num = seg.shape[0]
    if num == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=ACCUM_DTYPE)
    pb = (num - 1).bit_length()
    cb = (int(num_communities) - 1).bit_length()
    sb = (int(num_segments) - 1).bit_length()
    if sb + cb + pb > 63:
        return segment_pair_sums_sort(seg, comm, weights, num_communities)
    key = seg.astype(np.int64)
    key <<= cb
    key |= comm
    key <<= pb
    key |= np.arange(num, dtype=np.int64)
    key.sort()
    order = key & ((1 << pb) - 1)
    key >>= pb
    starts = group_starts(key)
    sums = np.add.reduceat(weights[order].astype(ACCUM_DTYPE), starts)
    ukey = key[starts]
    return ukey >> cb, ukey & ((1 << cb) - 1), sums


def segmented_argmax(
    seg: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Argmax of ``values`` within each segment (sort kernel).

    ``seg`` need not be sorted.  Returns ``(segments, argmax_indices)``:
    for each distinct segment id (ascending), the index into the input
    arrays of its maximum value.  Ties break toward the entry that sorts
    last among equals — deterministic given the inputs.
    """
    if seg.shape[0] == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    order = np.lexsort((values, seg))
    seg_sorted = seg[order]
    is_last = np.empty(seg_sorted.shape[0], dtype=bool)
    is_last[-1] = True
    np.not_equal(seg_sorted[1:], seg_sorted[:-1], out=is_last[:-1])
    last_pos = np.flatnonzero(is_last)
    return seg_sorted[last_pos], order[last_pos]


def segmented_argmax_sorted(
    seg: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """O(E) argmax for *sorted* ``seg`` — no lexsort.

    Exact equivalent of :func:`segmented_argmax` when ``seg`` is
    non-decreasing (which the pair-sum outputs guarantee): one
    ``maximum.reduceat`` finds each segment's maximum, and the last
    position holding it is the answer — the identical tie-break.  A
    segment whose maximum is NaN holds no such position; when one
    occurs, every segment's answer comes from a second ``reduceat`` over
    the marked positions, which gives such a segment ``-1``.
    """
    num = seg.shape[0]
    if num == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    boundary = np.empty(num, dtype=bool)
    boundary[0] = True
    np.not_equal(seg[1:], seg[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    maxima = np.maximum.reduceat(values, starts)
    lengths = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
    lengths[-1] = num - starts[-1]
    at_max = values == maxima.repeat(lengths)
    marked = np.flatnonzero(at_max)
    # The last marked position of each segment: the next marked
    # position, if any, lies in a later segment.
    mseg = seg[marked]
    last = np.empty(marked.shape[0], dtype=bool)
    last[-1:] = True
    np.not_equal(mseg[1:], mseg[:-1], out=last[:-1])
    best = marked[last]
    if best.shape[0] != starts.shape[0]:
        best = np.maximum.reduceat(
            np.where(at_max, np.arange(num, dtype=np.int64), -1), starts)
    return seg[starts].astype(np.int64), best
