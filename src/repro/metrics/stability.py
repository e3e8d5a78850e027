"""Partition stability analysis across seeds.

Heuristic community detection is seed-dependent; a practitioner needs to
know *how* seed-dependent before trusting a partition.  This module runs
the algorithm under several seeds and reports the pairwise partition
similarity (NMI by default) with each seed's membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.metrics.comparison import (
    adjusted_rand_index,
    normalized_mutual_information,
)

__all__ = ["StabilityReport", "seed_stability"]


@dataclass
class StabilityReport:
    """Outcome of a multi-seed stability run."""

    seeds: List[int]
    memberships: List[np.ndarray]
    #: Pairwise similarity matrix (symmetric, unit diagonal).
    similarity: np.ndarray
    metric: str

    @property
    def mean_similarity(self) -> float:
        """Mean off-diagonal pairwise similarity."""
        k = self.similarity.shape[0]
        if k < 2:
            return 1.0
        mask = ~np.eye(k, dtype=bool)
        return float(self.similarity[mask].mean())


def seed_stability(
    graph: CSRGraph,
    config=None,
    *,
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    metric: str = "nmi",
    algorithm: Callable | None = None,
) -> StabilityReport:
    """Run ``algorithm`` (default: Leiden) under each seed and compare
    the partitions."""
    # Imported lazily: this module is re-exported by repro.metrics, which
    # repro.core itself depends on — a module-level import would cycle.
    from repro.core.config import LeidenConfig
    from repro.core.leiden import leiden

    if algorithm is None:
        algorithm = leiden
    cfg = config or LeidenConfig()
    if metric == "nmi":
        compare = normalized_mutual_information
    elif metric == "ari":
        compare = adjusted_rand_index
    else:
        raise ValueError("metric must be 'nmi' or 'ari'")

    memberships = [
        algorithm(graph, cfg.with_(seed=s)).membership for s in seeds
    ]
    k = len(memberships)
    sim = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            sim[i, j] = sim[j, i] = compare(memberships[i], memberships[j])
    return StabilityReport(
        seeds=list(seeds),
        memberships=memberships,
        similarity=sim,
        metric=metric,
    )
