"""Parallel greedy graph coloring (Jones-Plassmann priorities).

The batch-parallel local-moving kernel processes vertices in batches that
share one snapshot of the memberships.  If two *adjacent* vertices decide
in the same batch they can swap or chase each other's communities forever
— the classic oscillation of synchronous Louvain.  Ordering vertices by a
proper coloring (a technique the paper cites from Grappolo [11]) removes
the problem: within a color class no two vertices are adjacent, so batch
decisions are exactly as independent as the asynchronous algorithm's.

The coloring is the Jones-Plassmann one: every vertex draws a random
priority, and in round ``k`` each uncolored vertex that outranks all of
its uncolored neighbors takes color ``k``.  A vertex wins in the first
round in which all of its *higher*-priority neighbors are already colored
(its lower-priority neighbors cannot win before it does), so the color is
a fixed function of the priorities::

    color(v) = 1 + max{ color(u) : u ~ v, priority(u) > priority(v) }

and 0 when ``v`` has no higher-priority neighbor.  That is ``v``'s
longest-path level in the DAG that points every edge from its
higher-priority end to its lower-priority end.  ``color_graph`` computes
the levels directly with a Kahn sweep over that DAG: the vertices of
in-degree 0 are level 0, and each level's out-edges are gathered once to
decrement their targets' in-degrees, releasing the next level.  Every
edge is touched once in total — not once per round in which both of its
ends are still uncolored, as round-by-round maximal-independent-set
iteration does — which matters on power-law graphs, whose super-graphs
need 100+ colors.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.segments import ragged_indices

__all__ = ["color_graph", "color_classes", "verify_coloring"]


def color_graph(
    graph: CSRGraph,
    *,
    seed: int = 0,
    max_rounds: int = 256,
) -> np.ndarray:
    """Proper vertex coloring; returns a color id per vertex.

    Colors are dense ``0..k-1``.  If ``max_rounds`` is hit (pathological
    inputs), all remaining vertices are given mutually distinct fresh
    colors in ascending id order, preserving properness.
    """
    n = graph.num_vertices
    colors = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return colors
    rng = np.random.default_rng(seed)
    # Priorities are a permutation of 0..n-1, so int32 compares them
    # exactly with half the bytes of the edge-length arrays below.
    priority = rng.permutation(n).astype(np.int32)
    # DAG edges: the CSR entries (owner, nbr) whose owner outranks the
    # neighbor.  Self loops and the upward half of every edge drop out;
    # the kept entries stay grouped by owner, so each vertex's out-edges
    # are one contiguous run.  Duplicate entries count once per entry in
    # the in-degree and are decremented once per entry.
    owner, nbr = graph.endpoints()
    down = np.repeat(priority, graph.degrees) > priority[nbr]
    nbr = nbr[down]
    out_deg = np.bincount(owner[down], minlength=n)
    del owner, down
    out_start = np.zeros(n, dtype=np.int64)
    np.cumsum(out_deg[:-1], out=out_start[1:])
    indeg = np.bincount(nbr, minlength=n)

    # Kahn sweep: round k colors exactly the level-k vertices, the same
    # set Jones-Plassmann round k would.
    frontier = np.flatnonzero(indeg == 0)
    color = 0
    while frontier.shape[0] > 0:
        if color >= max_rounds:
            remaining = np.flatnonzero(colors < 0)
            colors[remaining] = color + np.arange(remaining.shape[0])
            break
        colors[frontier] = color
        color += 1
        _, pos = ragged_indices(out_start[frontier], out_deg[frontier])
        released, counts = np.unique(nbr[pos], return_counts=True)
        indeg[released] -= counts
        frontier = released[indeg[released] == 0]
    return colors


def color_classes(colors: np.ndarray) -> list[np.ndarray]:
    """Vertex-id arrays per color, ascending color then ascending id."""
    if colors.shape[0] == 0:
        return []
    order = np.argsort(colors, kind="stable")
    sorted_colors = colors[order]
    boundaries = np.flatnonzero(
        np.concatenate([[True], sorted_colors[1:] != sorted_colors[:-1]])
    )
    return np.split(order, boundaries[1:])


def verify_coloring(graph: CSRGraph, colors: np.ndarray) -> bool:
    """True iff no edge connects two vertices of the same color."""
    src, dst = graph.endpoints()
    notself = src != dst
    return not bool(np.any(colors[src[notself]] == colors[dst[notself]]))
