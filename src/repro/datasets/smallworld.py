"""Preferential-attachment and small-world generators.

Two additional classic families beyond the registry's needs:

- :func:`barabasi_albert_graph` — scale-free growth by preferential
  attachment (another social-network-like profile, with a hub backbone
  rather than planted blocks);
- :func:`watts_strogatz_graph` — a ring lattice with random rewiring,
  interpolating between the road-like (high clustering, long paths) and
  random regimes.

Both are vectorized: Barabási-Albert uses the repeated-endpoints trick
(sampling uniformly from the running edge-endpoint list is exactly
degree-proportional sampling), Watts-Strogatz rewires all ring edges in
one pass.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.graph.builder import build_csr_from_edges
from repro.graph.csr import CSRGraph
from repro.types import VERTEX_DTYPE

__all__ = ["barabasi_albert_graph", "watts_strogatz_graph"]


def barabasi_albert_graph(
    num_vertices: int,
    attach: int,
    *,
    seed: int = 0,
) -> CSRGraph:
    """Scale-free graph: each new vertex attaches to ``attach`` existing
    vertices with probability proportional to their degree."""
    if attach < 1:
        raise ConfigError("attach must be >= 1")
    if num_vertices <= attach:
        raise ConfigError("num_vertices must exceed attach")
    rng = np.random.default_rng(seed)

    # Seed clique over the first attach+1 vertices.
    seed_nodes = np.arange(attach + 1)
    su, sv = np.triu_indices(attach + 1, k=1)
    src_parts = [seed_nodes[su]]
    dst_parts = [seed_nodes[sv]]

    # The endpoint pool realizes preferential attachment: every vertex
    # appears once per incident edge, so uniform pool sampling is
    # degree-proportional.
    pool = np.concatenate([seed_nodes[su], seed_nodes[sv]]).tolist()
    for v in range(attach + 1, num_vertices):
        targets = set()
        while len(targets) < attach:
            targets.add(int(pool[rng.integers(0, len(pool))]))
        tgt = list(targets)
        src_parts.append(np.full(len(tgt), v, dtype=np.int64))
        dst_parts.append(np.asarray(tgt, dtype=np.int64))
        pool.extend(tgt)
        pool.extend([v] * len(tgt))

    return build_csr_from_edges(
        np.concatenate(src_parts).astype(VERTEX_DTYPE),
        np.concatenate(dst_parts).astype(VERTEX_DTYPE),
        num_vertices=num_vertices,
    )


def watts_strogatz_graph(
    num_vertices: int,
    neighbors: int,
    rewire_probability: float,
    *,
    seed: int = 0,
) -> CSRGraph:
    """Ring lattice (each vertex linked to ``neighbors`` nearest on each
    side) with each edge's far endpoint rewired with the given
    probability."""
    if num_vertices < 4:
        raise ConfigError("num_vertices must be >= 4")
    if not 1 <= neighbors < num_vertices // 2:
        raise ConfigError("neighbors must be in [1, n/2)")
    if not 0.0 <= rewire_probability <= 1.0:
        raise ConfigError("rewire_probability must be in [0, 1]")
    rng = np.random.default_rng(seed)
    n = num_vertices

    base = np.arange(n, dtype=np.int64)
    src = np.repeat(base, neighbors)
    offsets = np.tile(np.arange(1, neighbors + 1, dtype=np.int64), n)
    dst = (src + offsets) % n

    rewire = rng.random(src.shape[0]) < rewire_probability
    new_dst = rng.integers(0, n, int(rewire.sum()))
    dst = dst.copy()
    dst[rewire] = new_dst
    src, dst = src.astype(VERTEX_DTYPE), dst.astype(VERTEX_DTYPE)
    keep = src != dst
    return build_csr_from_edges(src[keep], dst[keep], num_vertices=n)
