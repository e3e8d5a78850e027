"""Road-network-like generator.

DIMACS10 road networks (asia_osm, europe_osm) have average degree ~2.1,
enormous diameter, and strong spatial community structure.  We reproduce
those properties with a perturbed path-plus-shortcuts construction:
vertices sit on a line of spatial blocks; each block is internally a path
with a few local shortcuts; neighbouring blocks connect sparsely.  The
result has degree ≈ 2.1, block-shaped communities and long chains — the
regime where the paper observes many passes and a high runtime/|E|.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.graph.builder import build_csr_from_edges
from repro.graph.csr import CSRGraph
from repro.types import VERTEX_DTYPE

__all__ = ["road_network"]


def road_network(
    num_blocks: int,
    block_size: int,
    *,
    shortcut_fraction: float = 0.05,
    inter_block_links: int = 2,
    seed: int = 0,
) -> tuple[CSRGraph, np.ndarray]:
    """A chain of spatial blocks, each a path with local shortcuts.

    - inside each block: a path ``v0-v1-...`` plus
      ``shortcut_fraction * block_size`` random short-range chords;
    - between consecutive blocks: ``inter_block_links`` edges.

    Returns ``(graph, planted_block_membership)``.
    """
    if num_blocks < 1 or block_size < 2:
        raise ConfigError("need at least one block of size >= 2")
    if not 0.0 <= shortcut_fraction <= 1.0:
        raise ConfigError("shortcut_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    n = num_blocks * block_size
    src_parts, dst_parts = [], []

    # Paths within blocks, vectorized across all blocks at once: the global
    # path minus the edges that would cross block boundaries.
    path_u = np.arange(n - 1, dtype=np.int64)
    inside = (path_u % block_size) != (block_size - 1)
    src_parts.append(path_u[inside])
    dst_parts.append(path_u[inside] + 1)

    # Short-range chords within blocks.
    n_short = int(num_blocks * block_size * shortcut_fraction)
    if n_short:
        block = rng.integers(0, num_blocks, n_short)
        i = rng.integers(0, block_size, n_short)
        span = rng.integers(2, max(3, block_size // 4), n_short)
        j = np.minimum(i + span, block_size - 1)
        base = block * block_size
        u, v = base + i, base + j
        keep = u != v
        src_parts.append(u[keep])
        dst_parts.append(v[keep])

    # Sparse inter-block connections between consecutive blocks.
    if num_blocks > 1 and inter_block_links:
        blocks = np.repeat(np.arange(num_blocks - 1, dtype=np.int64),
                           inter_block_links)
        u = blocks * block_size + rng.integers(0, block_size, blocks.shape[0])
        v = (blocks + 1) * block_size + rng.integers(0, block_size, blocks.shape[0])
        src_parts.append(u)
        dst_parts.append(v)

    # int32 edges, and no int64 part left alive through the build.
    src = np.concatenate(src_parts, dtype=VERTEX_DTYPE)
    dst = np.concatenate(dst_parts, dtype=VERTEX_DTYPE)
    del src_parts, dst_parts, path_u, inside
    graph = build_csr_from_edges(src, dst, num_vertices=n)
    membership = np.repeat(np.arange(num_blocks, dtype=VERTEX_DTYPE), block_size)
    return graph, membership
