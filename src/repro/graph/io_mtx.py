"""MatrixMarket coordinate-format graph I/O.

The paper's datasets come from the SuiteSparse Matrix Collection, which
distributes graphs as ``.mtx`` files.  We support the coordinate format
with ``pattern`` / ``real`` / ``integer`` fields and ``general`` /
``symmetric`` symmetry, which covers every graph in Table 2.
"""

from __future__ import annotations

from pathlib import Path
from typing import TextIO, Union

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.builder import build_csr_from_edges
from repro.graph.csr import CSRGraph
from repro.graph.io_edgelist import parse_weight
from repro.graph.ops import MAX_VERTEX_ID
from repro.types import VERTEX_DTYPE, WEIGHT_DTYPE

PathOrFile = Union[str, Path, TextIO]

_VALID_FIELDS = {"pattern", "real", "integer", "double"}
_VALID_SYMMETRY = {"general", "symmetric"}


def read_mtx(source: PathOrFile, *, symmetrize: bool = True) -> CSRGraph:
    """Parse a MatrixMarket coordinate file into a CSR graph.

    Vertex ids in the file are 1-based (MatrixMarket convention) and are
    shifted to 0-based.  Rectangular matrices are rejected — a graph
    adjacency matrix must be square.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return _read_mtx_stream(fh, symmetrize=symmetrize)
    return _read_mtx_stream(source, symmetrize=symmetrize)


def _read_mtx_stream(fh: TextIO, *, symmetrize: bool) -> CSRGraph:
    header = fh.readline()
    if not header.startswith("%%MatrixMarket"):
        raise GraphFormatError("missing %%MatrixMarket header")
    parts = header.strip().split()
    if len(parts) < 5:
        raise GraphFormatError(f"malformed header: {header.strip()!r}")
    _, obj, fmt, field, symmetry = parts[:5]
    if obj.lower() != "matrix" or fmt.lower() != "coordinate":
        raise GraphFormatError("only 'matrix coordinate' files are supported")
    field = field.lower()
    symmetry = symmetry.lower()
    if field not in _VALID_FIELDS:
        raise GraphFormatError(f"unsupported field type {field!r}")
    if symmetry not in _VALID_SYMMETRY:
        raise GraphFormatError(f"unsupported symmetry {symmetry!r}")

    # Skip comments, read the size line.  The header is line 1.
    lines = enumerate(fh, start=2)
    size_line = None
    for size_lineno, line in lines:
        text = line.strip()
        if not text or text.startswith("%"):
            continue
        size_line = text
        break
    if size_line is None:
        raise GraphFormatError("missing size line")
    dims = size_line.split()
    if len(dims) != 3:
        raise GraphFormatError(f"malformed size line: {size_line!r}")
    try:
        rows, cols, nnz = (int(x) for x in dims)
    except ValueError:
        raise GraphFormatError(f"malformed size line: {size_line!r}") from None
    if nnz < 0:
        raise GraphFormatError(f"negative entry count: {size_line!r}")
    if rows != cols:
        raise GraphFormatError("adjacency matrix must be square")
    if rows - 1 > MAX_VERTEX_ID:
        raise GraphFormatError(
            f"line {size_lineno}: {rows} rows, but vertex ids must fit in "
            f"{np.dtype(VERTEX_DTYPE)}")

    # Sized by the entries read, not by the size line's claim.
    pattern = field == "pattern"
    src, dst, wgt = [], [], []
    count = 0
    for lineno, line in lines:
        text = line.strip()
        if not text or text.startswith("%"):
            continue
        if count >= nnz:
            raise GraphFormatError("more entries than declared nnz")
        parts = text.split()
        if len(parts) < (2 if pattern else 3):
            kind = "pattern" if pattern else "weighted"
            raise GraphFormatError(f"bad {kind} entry: {text!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(
                f"line {lineno}: bad entry {text!r}") from None
        w = 1.0 if pattern else parse_weight(parts[2], f"line {lineno}")
        if not (1 <= u <= rows and 1 <= v <= cols):
            raise GraphFormatError(f"entry out of bounds: {text!r}")
        src.append(u - 1)
        dst.append(v - 1)
        if not pattern:
            wgt.append(w)
        count += 1
    if count != nnz:
        raise GraphFormatError(f"declared {nnz} entries but found {count}")

    # 'symmetric' files store one triangle; mirroring is exactly the
    # symmetrize step of the build pipeline.
    do_symmetrize = symmetrize or symmetry == "symmetric"
    return build_csr_from_edges(
        np.asarray(src, dtype=VERTEX_DTYPE),
        np.asarray(dst, dtype=VERTEX_DTYPE),
        None if pattern else np.asarray(wgt, dtype=WEIGHT_DTYPE),
        num_vertices=rows,
        symmetrize=do_symmetrize,
    )


def write_mtx(graph: CSRGraph, target: PathOrFile, *, field: str = "real") -> None:
    """Write a CSR graph as a general MatrixMarket coordinate file.

    All stored (directed) edges are emitted, so reading the file back with
    ``symmetrize=False`` reproduces the same graph.
    """
    if field not in {"real", "pattern"}:
        raise GraphFormatError(f"unsupported output field {field!r}")
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            _write_mtx_stream(graph, fh, field)
    else:
        _write_mtx_stream(graph, target, field)


def _write_mtx_stream(graph: CSRGraph, fh: TextIO, field: str) -> None:
    src, dst, wgt = graph.to_coo()
    fh.write(f"%%MatrixMarket matrix coordinate {field} general\n")
    fh.write(f"% written by repro (GVE-Leiden reproduction)\n")
    n = graph.num_vertices
    fh.write(f"{n} {n} {src.shape[0]}\n")
    if field == "pattern":
        for u, v in zip(src.tolist(), dst.tolist()):
            fh.write(f"{u + 1} {v + 1}\n")
    else:
        for u, v, w in zip(src.tolist(), dst.tolist(), wgt.tolist()):
            fh.write(f"{u + 1} {v + 1} {w:.9g}\n")
