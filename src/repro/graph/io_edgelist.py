"""Plain edge-list file I/O.

Format: one edge per line, ``u v [w]``, whitespace separated.  Lines
starting with ``#`` or ``%`` are comments.  This covers the SNAP and
DIMACS10-ish exports commonly used for the paper's dataset classes.

Every reader (edge list, MatrixMarket, METIS) parses weights with
:func:`parse_weight`: a weight must be a finite, non-negative float32.
Zero is legal.  Modularity is not defined for NaN, infinite or negative
weights, so such a file fails at load time rather than in a solve.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import TextIO, Union

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.builder import build_csr_from_edges
from repro.graph.csr import CSRGraph
from repro.graph.ops import MAX_VERTEX_ID
from repro.types import VERTEX_DTYPE, WEIGHT_DTYPE

PathOrFile = Union[str, Path, TextIO]

_WEIGHT_MAX = float(np.finfo(WEIGHT_DTYPE).max)


def parse_weight(token: str, where: str) -> float:
    """``token`` as an edge weight; :class:`GraphFormatError` naming
    ``where`` (such as ``"line 7"``) unless it is a number in
    ``[0, float32 max]``."""
    try:
        w = float(token)
    except ValueError:
        raise GraphFormatError(f"{where}: weight {token!r} is not a number") from None
    if not 0.0 <= w <= _WEIGHT_MAX:  # also false for NaN
        raise GraphFormatError(
            f"{where}: weight {token!r} is not a finite non-negative number")
    return w


def _open_for_read(source: PathOrFile):
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8"), True
    return source, False


def _open_for_write(target: PathOrFile):
    if isinstance(target, (str, Path)):
        return open(target, "w", encoding="utf-8"), True
    return target, False


def read_edgelist(
    source: PathOrFile,
    *,
    symmetrize: bool = True,
    default_weight: float = 1.0,
    num_vertices: int | None = None,
) -> CSRGraph:
    """Parse an edge-list file into a normalized CSR graph."""
    fh, owned = _open_for_read(source)
    try:
        src, dst, wgt = [], [], []
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text[0] in "#%":
                continue
            parts = text.split()
            if len(parts) < 2:
                raise GraphFormatError(f"line {lineno}: expected 'u v [w]'")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: {exc}") from exc
            w = (parse_weight(parts[2], f"line {lineno}") if len(parts) > 2
                 else default_weight)
            if u < 0 or v < 0:
                raise GraphFormatError(f"line {lineno}: negative vertex id")
            if u > MAX_VERTEX_ID or v > MAX_VERTEX_ID:
                raise GraphFormatError(
                    f"line {lineno}: vertex id {max(u, v)} does not fit in "
                    f"{np.dtype(VERTEX_DTYPE)}")
            src.append(u)
            dst.append(v)
            wgt.append(w)
    finally:
        if owned:
            fh.close()
    return build_csr_from_edges(
        np.asarray(src, dtype=VERTEX_DTYPE),
        np.asarray(dst, dtype=VERTEX_DTYPE),
        np.asarray(wgt, dtype=WEIGHT_DTYPE),
        symmetrize=symmetrize,
        num_vertices=num_vertices,
    )


def write_edgelist(
    graph: CSRGraph,
    target: PathOrFile,
    *,
    directed: bool = False,
    write_weights: bool = True,
) -> None:
    """Write a CSR graph as an edge list.

    With ``directed=False`` each undirected edge is emitted once
    (``u <= v``), matching what :func:`read_edgelist` expects back.
    """
    fh, owned = _open_for_write(target)
    try:
        src, dst, wgt = graph.to_coo()
        if not directed:
            keep = src <= dst
            src, dst, wgt = src[keep], dst[keep], wgt[keep]
        if write_weights:
            for u, v, w in zip(src.tolist(), dst.tolist(), wgt.tolist()):
                fh.write(f"{u} {v} {w:.9g}\n")
        else:
            for u, v in zip(src.tolist(), dst.tolist()):
                fh.write(f"{u} {v}\n")
    finally:
        if owned:
            fh.close()


def edgelist_from_string(text: str, **kwargs) -> CSRGraph:
    """Convenience wrapper: parse an edge list from an in-memory string."""
    return read_edgelist(io.StringIO(text), **kwargs)
