"""R-MAT (recursive matrix) graph generator.

R-MAT with skewed quadrant probabilities produces the heavy-tailed degree
distributions of web crawls and social networks.  Edge endpoints are
sampled fully vectorized: for each of the ``log2(n)`` levels, one batch of
random draws picks a quadrant for every edge at once.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.graph.builder import build_csr_from_edges
from repro.graph.csr import CSRGraph
from repro.types import VERTEX_DTYPE

__all__ = ["rmat_graph", "rmat_edges"]


def rmat_edges(
    scale: int,
    num_edges: int,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    noise: float = 0.05,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``num_edges`` R-MAT edge endpoints over ``2**scale`` vertices.

    ``a + b + c`` must be < 1; the fourth quadrant gets the remainder.
    ``noise`` jitters the quadrant probabilities per level (the standard
    smoothing that avoids exact self-similar artifacts).
    """
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise ConfigError("quadrant probabilities must be non-negative")
    if scale < 1 or scale > 30:
        raise ConfigError("scale must be in [1, 30]")
    rng = np.random.default_rng(seed)
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    for level in range(scale):
        jitter = 1.0 + noise * (rng.random(4) - 0.5)
        pa, pb, pc, pd = np.array([a, b, c, d]) * jitter
        total = pa + pb + pc + pd
        pa, pb, pc = pa / total, pb / total, pc / total
        u = rng.random(num_edges)
        right = u >= pa + pb  # destination bit
        lower = ((u >= pa) & (u < pa + pb)) | (u >= pa + pb + pc)  # source bit
        src = (src << 1) | lower.astype(np.int64)
        dst = (dst << 1) | right.astype(np.int64)
    return src, dst


def rmat_graph(
    scale: int,
    avg_degree: float,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    connect: bool = True,
) -> CSRGraph:
    """An undirected R-MAT graph on ``2**scale`` vertices.

    ``avg_degree`` counts stored (bidirectional) edge endpoints per
    vertex, matching the paper's ``D_avg`` convention.  ``connect=True``
    threads a Hamiltonian path through all vertices so the graph has no
    isolated vertices (SuiteSparse web crawls are crawled, hence
    reachable).
    """
    n = 1 << scale
    num_edges = max(1, int(n * avg_degree / 2))
    src, dst = rmat_edges(scale, num_edges, a=a, b=b, c=c, seed=seed)
    if connect:
        path = np.arange(n - 1, dtype=np.int64)
        src = np.concatenate([src, path])
        dst = np.concatenate([dst, path + 1])
    src, dst = src.astype(VERTEX_DTYPE), dst.astype(VERTEX_DTYPE)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    return build_csr_from_edges(src, dst, num_vertices=n)
