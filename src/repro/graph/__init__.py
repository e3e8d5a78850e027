"""Graph substrate: CSR storage, builders, transforms and I/O.

The paper stores the input graph either as a *weighted 2D-vector* graph or
a *weighted CSR with degree* (Figure 5), and stores the super-vertex graph
produced by the aggregation phase in a *weighted holey CSR with degree*
(Algorithm 4).  This package implements all three representations plus the
usual conversion, symmetrization and file I/O plumbing around them.
"""

from repro.graph.adjacency import AdjacencyGraph
from repro.graph.builder import GraphBuilder, build_csr_from_edges
from repro.graph.csr import CSRGraph, empty_csr
from repro.graph.io_edgelist import read_edgelist, write_edgelist
from repro.graph.io_metis import read_metis, write_metis
from repro.graph.io_mtx import read_mtx, write_mtx
from repro.graph.ops import (
    coalesce_edges,
    degree_histogram,
    induced_subgraph,
    relabel_compact,
    remove_self_loops,
    symmetrize_edges,
)
from repro.graph.validate import validate_csr

__all__ = [
    "CSRGraph",
    "empty_csr",
    "AdjacencyGraph",
    "GraphBuilder",
    "build_csr_from_edges",
    "symmetrize_edges",
    "coalesce_edges",
    "remove_self_loops",
    "relabel_compact",
    "degree_histogram",
    "induced_subgraph",
    "read_edgelist",
    "write_edgelist",
    "read_mtx",
    "write_mtx",
    "read_metis",
    "write_metis",
    "validate_csr",
]
