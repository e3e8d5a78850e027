"""LFR-like benchmark generator (web-crawl stand-in).

The LAW web crawls have heavy-tailed degrees, heavy-tailed community
sizes and strong, well-separated communities (the paper finds only a few
thousand communities in graphs of tens of millions of vertices — i.e.,
very large communities).  The full LFR benchmark rewires a configuration
model; here we keep its two defining ingredients — power-law degrees and
power-law community sizes with a mixing parameter μ — and sample edges
directly:

- each vertex draws a target degree from a truncated power law;
- community sizes follow a (coarser) truncated power law;
- a fraction 1-μ of each vertex's edge endpoints attach to random
  endpoints *within its community* (degree-weighted), the rest anywhere.

Degree-weighted endpoint sampling reproduces the hub-dominated structure
of crawls without per-edge Python work.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.graph.builder import build_csr_from_edges
from repro.graph.csr import CSRGraph
from repro.types import VERTEX_DTYPE

__all__ = ["lfr_like_graph", "powerlaw_integers"]


def powerlaw_integers(
    count: int,
    exponent: float,
    minimum: int,
    maximum: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """``count`` integers from a truncated power law via inverse CDF."""
    if minimum < 1 or maximum < minimum:
        raise ConfigError("need 1 <= minimum <= maximum")
    if exponent <= 1.0:
        raise ConfigError("exponent must exceed 1")
    u = rng.random(count)
    a = 1.0 - exponent
    lo, hi = float(minimum), float(maximum) + 1.0
    vals = (u * (hi**a - lo**a) + lo**a) ** (1.0 / a)
    return np.minimum(vals.astype(np.int64), maximum)


def lfr_like_graph(
    num_vertices: int,
    *,
    avg_degree: float = 20.0,
    degree_exponent: float = 2.5,
    max_degree_fraction: float = 0.05,
    community_exponent: float = 2.0,
    min_community: int = 50,
    max_community_fraction: float = 0.25,
    mixing: float = 0.1,
    seed: int = 0,
) -> tuple[CSRGraph, np.ndarray]:
    """Power-law degrees + power-law communities + mixing μ.

    Returns ``(graph, planted_membership)``.  ``avg_degree`` counts
    stored (bidirectional) endpoints per vertex (the paper's D_avg).
    """
    if num_vertices < 4:
        raise ConfigError("num_vertices must be >= 4")
    if not 0.0 <= mixing <= 1.0:
        raise ConfigError("mixing must be in [0, 1]")
    rng = np.random.default_rng(seed)
    n = num_vertices

    # Community sizes: draw until they cover n, then trim.
    max_comm = max(min_community, int(n * max_community_fraction))
    sizes = []
    covered = 0
    while covered < n:
        s = int(powerlaw_integers(1, community_exponent, min_community,
                                  max_comm, rng)[0])
        s = min(s, n - covered)
        sizes.append(s)
        covered += s
    sizes = np.asarray(sizes, dtype=np.int64)
    k = sizes.shape[0]
    starts = np.zeros(k, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    membership = np.repeat(np.arange(k, dtype=VERTEX_DTYPE), sizes)

    # Per-vertex degrees: truncated power law rescaled to hit avg_degree.
    max_deg = max(2, int(n * max_degree_fraction))
    deg = powerlaw_integers(n, degree_exponent, 1, max_deg, rng).astype(np.float64)
    deg *= avg_degree / deg.mean()

    # Intra-community endpoints, degree-weighted within each block.
    intra_endpoints = deg * (1.0 - mixing)
    src_parts, dst_parts = [], []
    for b in range(k):
        lo, size = starts[b], sizes[b]
        if size < 2:
            continue
        local = intra_endpoints[lo : lo + size]
        m_b = max(1, int(local.sum() / 2))
        p = local / local.sum()
        u = rng.choice(size, size=m_b, p=p) + lo
        v = rng.choice(size, size=m_b, p=p) + lo
        src_parts.append(u)
        dst_parts.append(v)

    # Inter-community endpoints, degree-weighted globally.
    m_inter = int(deg.sum() * mixing / 2)
    if m_inter:
        p = deg / deg.sum()
        src_parts.append(rng.choice(n, size=m_inter, p=p))
        dst_parts.append(rng.choice(n, size=m_inter, p=p))

    # int32 edges, and no int64 part left alive through the build.
    src = np.concatenate(src_parts, dtype=VERTEX_DTYPE)
    dst = np.concatenate(dst_parts, dtype=VERTEX_DTYPE)
    del src_parts, dst_parts
    keep = src != dst
    src, dst = src[keep], dst[keep]
    graph = build_csr_from_edges(src, dst, num_vertices=n)
    return graph, membership
