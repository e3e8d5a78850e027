"""Edge-list transforms of the build pipeline: one packed-key sort.

Every CSR built from an edge list — :func:`repro.graph.builder.
build_csr_from_edges` and :meth:`CSRGraph.from_coo`, and through them
every reader, generator and served UPDATE — takes its rows from
:func:`group_edges`.  It packs each edge's ``(source, target, input
position)`` into one int64 key, writing the reverse of each edge of a
symmetrized list straight into the key array, and sorts the keys with
``np.sort``.  Every key is unique, so whichever sort numpy picks gives
the stable ``(source, target)`` order ``np.lexsort`` gives: the position
field gathers the weights in that order, and ``reduceat`` reduces each
run of parallel edges over the same float64 values in the same order,
bit for bit.  Rows come out grouped by source, so their offsets follow
from one ``bincount`` (:func:`row_offsets`).  When the weights are
omitted every weight is 1.0, which sums exactly: a run's sum is its
length, and the key drops the position field.

:func:`group_edges_sort` keeps the lexsort/argsort formula.  It is the
path for keys that need more than 63 bits and the tests' oracle
(``repro.bench.kernels.build_csr_sort``).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import GraphStructureError
from repro.types import (
    ACCUM_DTYPE,
    OFFSET_DTYPE,
    VERTEX_DTYPE,
    WEIGHT_DTYPE,
)

Coo = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: Largest vertex id the CSR's int32 target array holds.
MAX_VERTEX_ID = int(np.iinfo(VERTEX_DTYPE).max)

#: Reductions of parallel edges; ``None`` keeps every edge.
REDUCE_MODES = ("sum", "max", "first", None)


def as_vertex_ids(values) -> np.ndarray:
    """``values`` as a 1-D int32 id array.

    Integer ids outside ``[0, MAX_VERTEX_ID]`` raise
    :class:`GraphStructureError` rather than wrap around in the cast.
    """
    arr = np.asarray(values)
    if arr.dtype != VERTEX_DTYPE and arr.dtype.kind in "iu" and arr.size:
        lo, hi = int(arr.min()), int(arr.max())
        if lo < 0:
            raise GraphStructureError("vertex ids must be non-negative")
        if hi > MAX_VERTEX_ID:
            raise GraphStructureError(
                f"vertex id {hi} does not fit in {np.dtype(VERTEX_DTYPE)}")
    return arr.astype(VERTEX_DTYPE, copy=False).ravel()


def as_edge_arrays(sources, targets, weights=None):
    """Parallel id arrays and the weights, ``None`` when omitted."""
    src = as_vertex_ids(sources)
    dst = as_vertex_ids(targets)
    if src.shape != dst.shape:
        raise GraphStructureError("sources/targets length mismatch")
    wgt = None
    if weights is not None:
        wgt = np.asarray(weights, dtype=WEIGHT_DTYPE).ravel()
        if wgt.shape != src.shape:
            raise GraphStructureError("weights length mismatch")
    return src, dst, wgt


def _unit(wgt, size: int) -> np.ndarray:
    return np.ones(size, dtype=WEIGHT_DTYPE) if wgt is None else wgt


def vertex_count(src, dst, num_vertices: Optional[int] = None) -> int:
    """``num_vertices``, or ``max id + 1`` when omitted.

    Raises :class:`GraphStructureError` for a negative id or an id the
    given vertex count cannot hold.
    """
    if src.size == 0:
        return 0 if num_vertices is None else int(num_vertices)
    lo = min(int(src.min()), int(dst.min()))
    hi = max(int(src.max()), int(dst.max()))
    if lo < 0:
        raise GraphStructureError("vertex ids must be non-negative")
    if num_vertices is None:
        return hi + 1
    if hi >= num_vertices:
        raise GraphStructureError(
            f"vertex id {hi} out of range for {num_vertices} vertices")
    return int(num_vertices)


def row_offsets(sources, num_vertices: int) -> np.ndarray:
    """CSR offsets of edges grouped by source (``num_vertices + 1``)."""
    offsets = np.zeros(num_vertices + 1, dtype=OFFSET_DTYPE)
    np.cumsum(np.bincount(sources, minlength=num_vertices), out=offsets[1:])
    return offsets


def symmetrize_edges(sources, targets, weights=None) -> Coo:
    """Add the reverse of every non-loop edge (paper Table 2 convention)."""
    src, dst, wgt = as_edge_arrays(sources, targets, weights)
    wgt = _unit(wgt, src.shape[0])
    loop = src == dst
    rsrc, rdst, rwgt = dst[~loop], src[~loop], wgt[~loop]
    return (
        np.concatenate([src, rsrc]),
        np.concatenate([dst, rdst]),
        np.concatenate([wgt, rwgt]),
    )


def remove_self_loops(sources, targets, weights=None) -> Coo:
    """Drop all ``(i, i)`` edges."""
    src, dst, wgt = as_edge_arrays(sources, targets, weights)
    wgt = _unit(wgt, src.shape[0])
    keep = src != dst
    return src[keep], dst[keep], wgt[keep]


def coalesce_edges(sources, targets, weights=None, *, reduce: str = "sum") -> Coo:
    """Merge parallel edges. ``reduce`` is ``"sum"``, ``"max"`` or ``"first"``.

    The result is sorted by ``(source, target)``.
    """
    if reduce is None:
        raise GraphStructureError("unknown reduce mode None")
    src, dst, wgt = as_edge_arrays(sources, targets, weights)
    vertex_count(src, dst)
    return group_edges(src, dst, wgt, reduce=reduce)


def group_edges(
    src: np.ndarray,
    dst: np.ndarray,
    wgt: Optional[np.ndarray] = None,
    *,
    symmetrize: bool = False,
    reduce: Optional[str] = "sum",
) -> Coo:
    """Symmetrize, coalesce and group edges by source with one sort.

    ``src`` and ``dst`` are non-negative int32 ids, ``wgt`` float32
    weights or ``None`` for unit weights.  With ``symmetrize`` the
    reverse of every non-loop edge is added.  ``reduce`` merges each run
    of parallel edges (``"sum"``, ``"max"``, ``"first"``) and sorts the
    result by ``(source, target)``; ``None`` keeps every edge, each row
    in input order.  Returns ``(sources, targets, weights)``, bitwise
    equal to :func:`group_edges_sort`.
    """
    if reduce not in REDUCE_MODES:
        raise GraphStructureError(f"unknown reduce mode {reduce!r}")
    m = src.shape[0]
    rsrc, rdst, ridx = dst, src, None  # reverse edges
    if symmetrize:
        nonloop = src != dst
        if not nonloop.all():
            ridx = np.flatnonzero(nonloop)
            rsrc, rdst = dst[ridx], src[ridx]
    total = m + (rsrc.shape[0] if symmetrize else 0)
    if total == 0:
        return group_edges_sort(src, dst, wgt, symmetrize=symmetrize,
                                reduce=reduce)
    vb = max(int(src.max()), int(dst.max())).bit_length()
    # The position field: the input index, under a reverse-edge flag that
    # puts the reverses after every input edge, as a concatenation would.
    positioned = wgt is not None or reduce is None
    ib = (m - 1).bit_length() if positioned else 0
    pb = ib + (1 if positioned and symmetrize else 0)
    if 2 * vb + pb > 63:
        return group_edges_sort(src, dst, wgt, symmetrize=symmetrize,
                                reduce=reduce)

    key = np.empty(total, dtype=np.int64)
    _pack(key[:m], src, dst, None, 0, vb, pb, reduce)
    if symmetrize:
        _pack(key[m:], rsrc, rdst, ridx, 1 << ib, vb, pb, reduce)
    key.sort()

    if reduce is None:
        # [source | flag | index | target]: rows in input order.
        targets = _low_bits(key, vb)
        key >>= vb
        weights = (np.ones(total, dtype=WEIGHT_DTYPE) if wgt is None
                   else wgt[_low_bits(key, ib)])
        key >>= pb
        return key.astype(VERTEX_DTYPE), targets, weights

    # [source | target | flag | index]: one run per parallel edge.
    if positioned:
        index = _low_bits(key, ib)
        key >>= pb
        if reduce != "first":
            values = wgt[index].astype(ACCUM_DTYPE)
            del index
    new_run = np.empty(total, dtype=bool)
    new_run[0] = True
    np.not_equal(key[1:], key[:-1], out=new_run[1:])
    pairs = key[new_run]
    del key
    starts = np.flatnonzero(new_run)
    del new_run
    if wgt is None:
        # A run of unit weights sums to its length, which the cast to
        # float32 rounds as it rounds the float64 sum.
        merged = np.ones(starts.shape[0], dtype=WEIGHT_DTYPE)
        if reduce == "sum":
            np.subtract(starts[1:], starts[:-1], out=merged[:-1],
                        casting="unsafe")
            merged[-1] = total - starts[-1]
    elif reduce == "first":
        merged = wgt[index[starts]].astype(ACCUM_DTYPE).astype(WEIGHT_DTYPE)
        del index
    else:
        if starts.shape[0] < total:  # a run of one is its own value
            op = np.add if reduce == "sum" else np.maximum
            values = op.reduceat(values, starts)
        merged = values.astype(WEIGHT_DTYPE)
        del values
    del starts
    targets = _low_bits(pairs, vb)
    pairs >>= vb
    return pairs.astype(VERTEX_DTYPE), targets, merged


def _pack(out, src, dst, index, flag, vb, pb, reduce) -> None:
    """Write one half's keys into ``out`` with in-place shifts: ``vb``
    bits per id, ``pb`` position bits holding ``index`` (the input
    index, ``None`` for ``0..len - 1``) under ``flag``."""
    out[...] = src
    if reduce is not None:
        out <<= vb
        out |= dst
    if pb:
        out <<= pb
        out |= np.arange(out.shape[0]) if index is None else index
        if flag:
            out |= flag
    if reduce is None:
        out <<= vb
        out |= dst


def _low_bits(key: np.ndarray, bits: int) -> np.ndarray:
    """``key``'s low ``bits``, as int32 when they fit, with no int64
    temporary."""
    out = np.empty(key.shape[0], dtype=np.int32 if bits < 32 else np.int64)
    np.bitwise_and(key, (1 << bits) - 1, out=out, casting="unsafe")
    return out


def group_edges_sort(
    src: np.ndarray,
    dst: np.ndarray,
    wgt: Optional[np.ndarray] = None,
    *,
    symmetrize: bool = False,
    reduce: Optional[str] = "sum",
) -> Coo:
    """:func:`group_edges` by the lexsort/argsort formula.

    The reverse edges are concatenated after the input, parallel edges
    are merged after one ``np.lexsort`` and rows are grouped by one
    stable ``argsort``.  The path for keys of more than 63 bits, and the
    tests' oracle.
    """
    if reduce not in REDUCE_MODES:
        raise GraphStructureError(f"unknown reduce mode {reduce!r}")
    wgt = _unit(wgt, src.shape[0])
    if symmetrize:
        src, dst, wgt = symmetrize_edges(src, dst, wgt)
    if reduce is None:
        order = np.argsort(src, kind="stable")
        return src[order], dst[order], wgt[order]
    if src.size == 0:
        return src, dst, wgt
    order = np.lexsort((dst, src))
    src, dst, wgt = src[order], dst[order], wgt[order]
    new_group = np.empty(src.shape[0], dtype=bool)
    new_group[0] = True
    np.logical_or(src[1:] != src[:-1], dst[1:] != dst[:-1], out=new_group[1:])
    starts = np.flatnonzero(new_group)
    if reduce == "sum":
        merged = np.add.reduceat(wgt.astype(ACCUM_DTYPE), starts)
    elif reduce == "max":
        merged = np.maximum.reduceat(wgt.astype(ACCUM_DTYPE), starts)
    else:
        merged = wgt[starts].astype(ACCUM_DTYPE)
    return src[starts], dst[starts], merged.astype(WEIGHT_DTYPE)
