"""Exclusive/inclusive prefix sums, including the blocked parallel form.

Algorithm 4 uses parallel exclusive scans to turn per-community counts
into CSR offsets.  ``exclusive_scan`` is the fast single-call form;
``blocked_exclusive_scan`` performs the classic three-phase parallel scan
(per-block reduce, scan of block sums, per-block rescan) so the work
ledger can account for it the way the OpenMP implementation executes it.
"""

from __future__ import annotations

import numpy as np

from repro.types import OFFSET_DTYPE


def inclusive_scan(values, out=None) -> np.ndarray:
    """Inclusive prefix sum."""
    values = np.asarray(values)
    if out is None:
        out = np.empty_like(values)
    np.cumsum(values, out=out)
    return out


def exclusive_scan(values, out=None) -> np.ndarray:
    """Exclusive prefix sum: ``out[i] = sum(values[:i])``.

    When ``out`` is provided it must have length ``len(values)``; the
    total is returned separately by :func:`exclusive_scan_total` callers
    that need it, or simply ``out[-1] + values[-1]``.
    """
    values = np.asarray(values)
    if out is None:
        out = np.empty_like(values)
    if values.shape[0] == 0:
        return out
    np.cumsum(values[:-1], out=out[1:])
    out[0] = 0
    return out


def csr_offsets_from_counts(counts) -> np.ndarray:
    """Offsets array of length ``n + 1`` from per-row counts."""
    counts = np.asarray(counts, dtype=OFFSET_DTYPE)
    offsets = np.zeros(counts.shape[0] + 1, dtype=OFFSET_DTYPE)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def blocked_exclusive_scan(
    values,
    num_blocks: int,
    *,
    ledger=None,
    phase: str = "scan",
) -> np.ndarray:
    """Three-phase parallel exclusive scan over ``num_blocks`` blocks.

    Produces exactly the same result as :func:`exclusive_scan`; the block
    structure exists so per-block work can be recorded in ``ledger``
    (2 passes over each block plus a sequential scan of block sums),
    matching how the OpenMP implementation would run it.
    """
    values = np.asarray(values)
    n = values.shape[0]
    out = np.empty_like(values)
    if n == 0:
        return out
    num_blocks = max(1, min(int(num_blocks), n))
    bounds = np.linspace(0, n, num_blocks + 1).astype(np.int64)
    block_sums = np.empty(num_blocks, dtype=values.dtype)
    for b in range(num_blocks):  # phase 1: per-block reduce
        block_sums[b] = values[bounds[b] : bounds[b + 1]].sum()
    block_offsets = exclusive_scan(block_sums)  # phase 2: scan block sums
    for b in range(num_blocks):  # phase 3: per-block exclusive rescan
        lo, hi = bounds[b], bounds[b + 1]
        exclusive_scan(values[lo:hi], out=out[lo:hi])
        out[lo:hi] += block_offsets[b]
    if ledger is not None:
        block_work = np.diff(bounds).astype(np.float64) * 2.0
        ledger.parallel(block_work, phase=phase)
        ledger.serial(float(num_blocks), phase=phase)
    return out
