"""METIS graph-format I/O.

The DIMACS10 graphs the paper uses (asia_osm, europe_osm) are distributed
in METIS format alongside MatrixMarket: a header line
``<num_vertices> <num_edges> [fmt [ncon]]`` followed by one line per
vertex listing its (1-based) neighbors, optionally interleaved with edge
weights when ``fmt`` has the 1-bit set (``1``, ``11``, ...).  Vertex
weights (``fmt`` 10-bit) are parsed and ignored — the algorithms here are
edge-weighted.
"""

from __future__ import annotations

from pathlib import Path
from typing import TextIO, Union

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.builder import build_csr_from_edges
from repro.graph.csr import CSRGraph
from repro.graph.io_edgelist import parse_weight
from repro.types import VERTEX_DTYPE, WEIGHT_DTYPE

PathOrFile = Union[str, Path, TextIO]

__all__ = ["read_metis", "write_metis"]


def read_metis(source: PathOrFile) -> CSRGraph:
    """Parse a METIS graph file into a (symmetrized, coalesced) CSR graph."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return _read_stream(fh)
    return _read_stream(source)


def _data_lines(fh: TextIO):
    """``(line number, text)`` of every line but the ``%`` comments."""
    for lineno, line in enumerate(fh, start=1):
        text = line.strip()
        if text.startswith("%"):
            continue
        yield lineno, text


def _read_stream(fh: TextIO) -> CSRGraph:
    lines = _data_lines(fh)
    try:
        _, header = next(lines)
    except StopIteration:
        raise GraphFormatError("empty METIS file") from None
    parts = header.split()
    if len(parts) < 2 or len(parts) > 4:
        raise GraphFormatError(f"malformed METIS header: {header!r}")
    try:
        n = int(parts[0])
        declared_edges = int(parts[1])
        ncon = int(parts[3]) if len(parts) == 4 else 0
    except ValueError as exc:
        raise GraphFormatError(f"malformed METIS header: {header!r}") from exc
    fmt = parts[2] if len(parts) >= 3 else "0"
    fmt = fmt.zfill(3)
    has_vertex_weights = fmt[-2] == "1"
    has_edge_weights = fmt[-1] == "1"
    has_vertex_sizes = fmt[-3] == "1"
    nweights = ncon if (has_vertex_weights and ncon) else (
        1 if has_vertex_weights else 0
    )

    src, dst, wgt = [], [], []
    count = 0
    for u in range(n):
        try:
            lineno, text = next(lines)
        except StopIteration:
            raise GraphFormatError(
                f"expected {n} vertex lines, found {u}"
            ) from None
        tokens = text.split()
        pos = (1 if has_vertex_sizes else 0) + nweights
        if has_edge_weights:
            if (len(tokens) - pos) % 2:
                raise GraphFormatError(
                    f"vertex {u + 1}: odd neighbor/weight token count"
                )
            pairs = tokens[pos:]
            for k in range(0, len(pairs), 2):
                v = _neighbor(pairs[k], u, n, lineno)
                w = parse_weight(pairs[k + 1], f"line {lineno}")
                src.append(u)
                dst.append(v)
                wgt.append(w)
                count += 1
        else:
            for tok in tokens[pos:]:
                v = _neighbor(tok, u, n, lineno)
                src.append(u)
                dst.append(v)
                wgt.append(1.0)
                count += 1
    # METIS lists each undirected edge from both endpoints.
    if count != 2 * declared_edges:
        raise GraphFormatError(
            f"header declares {declared_edges} edges but found "
            f"{count} adjacency entries (expected {2 * declared_edges})"
        )
    return build_csr_from_edges(
        np.asarray(src, dtype=VERTEX_DTYPE),
        np.asarray(dst, dtype=VERTEX_DTYPE),
        np.asarray(wgt, dtype=WEIGHT_DTYPE),
        num_vertices=n,
        symmetrize=True,   # heals one-sided listings, coalesces doubles
        coalesce="max",    # both sides list the same weight
    )


def _neighbor(token: str, u: int, n: int, lineno: int) -> int:
    """0-based neighbor id of vertex ``u`` from a 1-based ``token``."""
    try:
        v = int(token) - 1
    except ValueError:
        raise GraphFormatError(
            f"line {lineno}: vertex {u + 1}: neighbor {token!r} is not an "
            f"integer") from None
    if not 0 <= v < n:
        raise GraphFormatError(f"vertex {u + 1}: neighbor {v + 1} out of range")
    return v


def write_metis(
    graph: CSRGraph,
    target: PathOrFile,
    *,
    edge_weights: bool = False,
) -> None:
    """Write a CSR graph in METIS format.

    Self-loops are dropped (METIS does not allow them); parallel edges
    should have been coalesced already.
    """
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            _write_stream(graph, fh, edge_weights)
    else:
        _write_stream(graph, target, edge_weights)


def _write_stream(graph: CSRGraph, fh: TextIO, edge_weights: bool) -> None:
    n = graph.num_vertices
    src, dst, _ = graph.to_coo()
    undirected = int(((src != dst)).sum()) // 2
    fmt = " 001" if edge_weights else ""
    fh.write(f"{n} {undirected}{fmt}\n")
    for u in range(n):
        nbrs, wgts = graph.edges(u)
        keep = nbrs != u
        nbrs, wgts = nbrs[keep], wgts[keep]
        if edge_weights:
            toks = []
            for v, w in zip(nbrs.tolist(), wgts.tolist()):
                toks.append(str(v + 1))
                toks.append(f"{w:.9g}")
            fh.write(" ".join(toks) + "\n")
        else:
            fh.write(" ".join(str(v + 1) for v in nbrs.tolist()) + "\n")
