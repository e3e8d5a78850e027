"""Quality functions: modularity and the Constant Potts Model (CPM).

The paper optimizes modularity throughout, but notes (Section 2) that
modularity maximization suffers from the resolution limit, "which can be
overcome by using an alternative quality function, such as the Constant
Potts Model" (Traag et al. 2011).  Both objectives fit the same greedy
framework; they differ in the per-community aggregate they track and in
the delta of moving a vertex:

- **modularity** tracks the community's total edge weight ``Σ_c`` and

      ΔQ = (K_{i→c} − K_{i→d}) / m − γ K_i (K_i + Σ_c − Σ_d) / 2m²

- **CPM** tracks the community's total node size ``S_c`` (super-vertices
  carry the number of original vertices they contain) and, normalized by
  ``m`` so the paper's tolerance defaults remain meaningful,

      ΔH = [(K_{i→c} − K_{i→d}) − γ s_i (S_c − S_d + s_i)] / m

The phase kernels are parameterized by a :class:`Quality` instance: it
supplies the per-vertex quantity that moves carry between communities
(``K_i`` or ``s_i``) and the vectorized delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.graph.csr import CSRGraph
from repro.metrics.partition import check_membership
from repro.types import ACCUM_DTYPE

__all__ = ["Quality", "cpm_quality"]

_KINDS = ("modularity", "cpm")


@dataclass(frozen=True)
class Quality:
    """A greedy-optimizable quality function."""

    kind: str = "modularity"
    resolution: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(f"quality must be one of {_KINDS}")
        if not (math.isfinite(self.resolution) and self.resolution > 0):
            raise ConfigError("resolution must be finite and positive")

    def vertex_quantity(self, vertex_weights, node_sizes):
        """Per-vertex amount that moves add/remove from the community
        aggregate: ``K_i`` for modularity, ``s_i`` for CPM."""
        if self.kind == "modularity":
            return vertex_weights
        return np.asarray(node_sizes, dtype=ACCUM_DTYPE)

    def delta(self, kic, kid, k_i, q_i, aux_c, aux_d, m):
        """Vectorized quality delta of moving ``i`` from ``d`` to ``c``.

        ``aux_*`` is the community aggregate (Σ or S) *before* the move;
        ``k_i`` the vertex weight; ``q_i`` the vertex quantity.
        """
        kic = np.asarray(kic, dtype=ACCUM_DTYPE)
        if self.kind == "modularity":
            return (kic - kid) / m - self.resolution * k_i * (
                k_i + aux_c - aux_d
            ) / (2.0 * m * m)
        return ((kic - kid) - self.resolution * q_i *
                (aux_c - aux_d + q_i)) / m


def cpm_quality(
    graph: CSRGraph,
    membership,
    *,
    resolution: float = 1.0,
    node_sizes=None,
) -> float:
    """CPM objective, normalized by ``m``:

        H/m = [ Σ_c e_c − γ Σ_c S_c (S_c − 1) / 2 ] / m

    where ``e_c`` is community ``c``'s intra-community undirected edge
    weight (self-loops count once) and ``S_c`` its total node size.
    ``node_sizes`` defaults to all ones (flat graphs).
    """
    C = check_membership(membership, graph.num_vertices)
    m = graph.m
    if graph.num_vertices == 0 or m <= 0:
        return 0.0
    src, dst, wgt = graph.to_coo()
    same = C[src] == C[dst]
    loops = src == dst
    # Stored both directions: halve non-loop intra weight.
    e_total = float(
        wgt[same & ~loops].sum(dtype=ACCUM_DTYPE) / 2.0
        + wgt[same & loops].sum(dtype=ACCUM_DTYPE)
    )
    if node_sizes is None:
        sizes = np.ones(graph.num_vertices, dtype=ACCUM_DTYPE)
    else:
        sizes = np.asarray(node_sizes, dtype=ACCUM_DTYPE)
    S = np.bincount(C, weights=sizes)
    penalty = float(resolution * (S * (S - 1.0) / 2.0).sum())
    return (e_total - penalty) / m
