"""Planted-partition and stochastic-block-model generators.

These produce the social-network-like stand-ins: dense-ish graphs whose
community structure strength is controlled by the intra/inter degree
split.  Sampling is vectorized: edge endpoints are drawn directly rather
than flipping a coin per vertex pair, so generation is O(edges).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.graph.builder import build_csr_from_edges
from repro.graph.csr import CSRGraph
from repro.types import VERTEX_DTYPE

__all__ = ["planted_partition", "stochastic_block_model"]


def planted_partition(
    num_communities: int,
    community_size: int,
    *,
    intra_degree: float = 10.0,
    inter_degree: float = 2.0,
    seed: int = 0,
) -> tuple[CSRGraph, np.ndarray]:
    """Equal-sized planted communities.

    Every vertex receives on average ``intra_degree`` edge endpoints
    inside its community and ``inter_degree`` endpoints anywhere.
    Returns ``(graph, planted_membership)``.
    """
    if num_communities < 1 or community_size < 2:
        raise ConfigError("need at least one community of size >= 2")
    rng = np.random.default_rng(seed)
    n = num_communities * community_size
    m_intra_per_comm = max(1, int(community_size * intra_degree / 2))
    m_inter = int(n * inter_degree / 2)

    bases = np.repeat(
        np.arange(num_communities, dtype=np.int64) * community_size,
        m_intra_per_comm,
    )
    u = rng.integers(0, community_size, bases.shape[0]) + bases
    v = rng.integers(0, community_size, bases.shape[0]) + bases
    uo = rng.integers(0, n, m_inter)
    vo = rng.integers(0, n, m_inter)
    src = np.concatenate([u, uo], dtype=VERTEX_DTYPE)
    dst = np.concatenate([v, vo], dtype=VERTEX_DTYPE)
    del bases, u, v, uo, vo
    keep = src != dst
    src, dst = src[keep], dst[keep]
    graph = build_csr_from_edges(src, dst, num_vertices=n)
    membership = np.repeat(
        np.arange(num_communities, dtype=VERTEX_DTYPE), community_size
    )
    return graph, membership


def stochastic_block_model(
    block_sizes,
    *,
    intra_degree: float = 10.0,
    mixing: float = 0.2,
    seed: int = 0,
) -> tuple[CSRGraph, np.ndarray]:
    """SBM with arbitrary block sizes and a mixing parameter.

    ``mixing`` is the expected fraction of each vertex's edges that leave
    its block (the LFR μ convention): 0 gives disconnected blocks, values
    near 1 destroy the community structure (the com-Orkut-like regime).
    Returns ``(graph, planted_membership)``.
    """
    sizes = np.asarray(block_sizes, dtype=np.int64)
    if sizes.ndim != 1 or sizes.shape[0] == 0 or (sizes < 1).any():
        raise ConfigError("block_sizes must be positive integers")
    if not 0.0 <= mixing <= 1.0:
        raise ConfigError("mixing must be in [0, 1]")
    rng = np.random.default_rng(seed)
    n = int(sizes.sum())
    k = sizes.shape[0]
    starts = np.zeros(k, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    membership = np.repeat(np.arange(k, dtype=VERTEX_DTYPE), sizes)

    total_endpoints = n * intra_degree
    m_intra_per_block = np.maximum(
        (sizes * intra_degree * (1.0 - mixing) / 2).astype(np.int64), 0
    )
    m_inter = int(total_endpoints * mixing / 2)

    src_parts, dst_parts = [], []
    for b in range(k):
        mb = int(m_intra_per_block[b])
        if mb == 0 or sizes[b] < 2:
            continue
        u = rng.integers(0, sizes[b], mb) + starts[b]
        v = rng.integers(0, sizes[b], mb) + starts[b]
        src_parts.append(u)
        dst_parts.append(v)
    if m_inter:
        src_parts.append(rng.integers(0, n, m_inter))
        dst_parts.append(rng.integers(0, n, m_inter))
    src = dst = np.empty(0, dtype=VERTEX_DTYPE)
    if src_parts:
        # int32 edges, and no int64 part left alive through the build.
        src = np.concatenate(src_parts, dtype=VERTEX_DTYPE)
        dst = np.concatenate(dst_parts, dtype=VERTEX_DTYPE)
        del src_parts, dst_parts
        keep = src != dst
        src, dst = src[keep], dst[keep]
    graph = build_csr_from_edges(src, dst, num_vertices=n)
    return graph, membership
