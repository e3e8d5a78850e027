"""Deep structural validation for CSR graphs.

:class:`repro.graph.csr.CSRGraph` performs cheap checks on construction;
this module adds the expensive whole-graph checks used by tests and by the
benchmark harness before trusting a generated dataset: symmetry of the
stored edge set, weight symmetry, and absence of dangling slack in holey
rows.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphStructureError
from repro.graph.csr import CSRGraph


def validate_csr(
    graph: CSRGraph,
    *,
    require_symmetric: bool = True,
    require_positive_weights: bool = True,
) -> None:
    """Raise :class:`GraphStructureError` on any violated invariant."""
    src, dst, wgt = graph.to_coo()
    n = graph.num_vertices
    if src.size != graph.num_edges:
        raise GraphStructureError("degree sum does not match stored edges")
    if src.size and (dst.min() < 0 or dst.max() >= n):
        raise GraphStructureError("edge target out of range")
    if require_positive_weights and src.size and wgt.min() <= 0:
        raise GraphStructureError("non-positive edge weight")
    if not np.all(np.isfinite(wgt)):
        raise GraphStructureError("non-finite edge weight")
    if require_symmetric:
        _check_symmetry(src, dst, wgt)


def _check_symmetry(src: np.ndarray, dst: np.ndarray, wgt: np.ndarray) -> None:
    """Check the multiset of (u,v,w) equals the multiset of (v,u,w)."""
    fwd = np.lexsort((wgt, dst, src))
    rev = np.lexsort((wgt, src, dst))
    same = (
        np.array_equal(src[fwd], dst[rev])
        and np.array_equal(dst[fwd], src[rev])
        and np.allclose(wgt[fwd], wgt[rev])
    )
    if not same:
        raise GraphStructureError("stored edge set is not symmetric")

