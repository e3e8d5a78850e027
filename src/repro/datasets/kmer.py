"""Protein k-mer-graph-like generator.

GenBank k-mer graphs (kmer_A2a, kmer_V1r) are unions of long, mostly
linear chains (de Bruijn paths) with occasional branch points, average
degree ~2.1-2.2, and very many small natural communities.  We model them
as a forest of chains: fixed-length paths, a small probability of a
branch sprouting mid-chain, and rare chain-to-chain links so the graph is
not completely disconnected.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.graph.builder import build_csr_from_edges
from repro.graph.csr import CSRGraph
from repro.types import VERTEX_DTYPE

__all__ = ["kmer_graph"]


def kmer_graph(
    num_chains: int,
    chain_length: int,
    *,
    branch_probability: float = 0.05,
    link_probability: float = 0.3,
    seed: int = 0,
) -> CSRGraph:
    """A forest of chains with branches and sparse inter-chain links.

    - ``num_chains`` paths of ``chain_length`` vertices each;
    - each interior vertex sprouts a chord to a vertex further down its
      own chain with ``branch_probability``;
    - each chain links to the next with ``link_probability``.
    """
    if num_chains < 1 or chain_length < 2:
        raise ConfigError("need at least one chain of length >= 2")
    rng = np.random.default_rng(seed)
    n = num_chains * chain_length
    src_parts, dst_parts = [], []

    path_u = np.arange(n - 1, dtype=np.int64)
    inside = (path_u % chain_length) != (chain_length - 1)
    src_parts.append(path_u[inside])
    dst_parts.append(path_u[inside] + 1)

    interior = np.flatnonzero(inside)
    branch = rng.random(interior.shape[0]) < branch_probability
    bu = path_u[interior[branch]]
    if bu.shape[0]:
        chain = bu // chain_length
        offset = bu % chain_length
        span = rng.integers(2, max(3, chain_length // 3), bu.shape[0])
        bv = chain * chain_length + np.minimum(offset + span, chain_length - 1)
        keep = bu != bv
        src_parts.append(bu[keep])
        dst_parts.append(bv[keep])

    if num_chains > 1:
        linked = np.flatnonzero(rng.random(num_chains - 1) < link_probability)
        if linked.shape[0]:
            u = linked * chain_length + rng.integers(0, chain_length, linked.shape[0])
            v = (linked + 1) * chain_length + rng.integers(
                0, chain_length, linked.shape[0]
            )
            src_parts.append(u)
            dst_parts.append(v)

    # int32 edges, and no int64 part left alive through the build.
    src = np.concatenate(src_parts, dtype=VERTEX_DTYPE)
    dst = np.concatenate(dst_parts, dtype=VERTEX_DTYPE)
    del src_parts, dst_parts, path_u, inside, interior
    return build_csr_from_edges(src, dst, num_vertices=n)
