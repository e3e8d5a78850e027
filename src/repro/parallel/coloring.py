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

The sweep keeps its passes over the arrays few.  The DAG's row offsets
come from a prefix sum of the kept-edge mask, so no per-edge source
array is built.  Each level gathers its out-edges with one ``repeat``
and one ``arange``, decrements the int64 in-degrees with
``np.subtract.at`` (on int32 it is ~20x slower unless the operand is an
int32 too), and marks the released vertices in a boolean array, whose
``flatnonzero`` is the next level in ascending id order without a sort.
:func:`color_classes` sorts a 16-bit copy of the colors when they fit,
which numpy radix-sorts.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.segments import ragged_positions

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
    # are one contiguous run, bounded by the kept-entry prefix sum at the
    # owner's row bounds.  Duplicate entries count once per entry in the
    # in-degree and are decremented once per entry.
    degrees = graph.degrees
    nbr = graph.targets
    if graph.is_holey:
        nbr = nbr[ragged_positions(graph.offsets[:-1], degrees)]
    down = np.repeat(priority, degrees) > priority[nbr]
    nbr = nbr[down]
    kept = np.zeros(down.shape[0] + 1, dtype=np.int64)
    kept[1:] = down
    del down
    np.cumsum(kept, out=kept)  # in place: no edge-length temporary
    row_end = np.cumsum(degrees)
    out_end = kept[row_end]
    del kept, row_end
    out_deg = np.diff(out_end, prepend=0)
    out_start = out_end - out_deg
    indeg = np.bincount(nbr, minlength=n)

    # Kahn sweep: round k colors exactly the level-k vertices, the same
    # set Jones-Plassmann round k would.
    frontier = np.flatnonzero(indeg == 0)
    released = np.zeros(n, dtype=bool)
    color = 0
    while frontier.shape[0] > 0:
        if color >= max_rounds:
            remaining = np.flatnonzero(colors < 0)
            colors[remaining] = color + np.arange(remaining.shape[0])
            break
        colors[frontier] = color
        color += 1
        hit = nbr[ragged_positions(out_start[frontier], out_deg[frontier])]
        np.subtract.at(indeg, hit, 1)
        released[hit[indeg[hit] == 0]] = True
        frontier = np.flatnonzero(released)
        released[frontier] = False
    return colors


def color_classes(colors: np.ndarray) -> list[np.ndarray]:
    """Vertex-id arrays per color, ascending color then ascending id."""
    if colors.shape[0] == 0:
        return []
    keys = colors
    if (colors.min() >= np.iinfo(np.int16).min
            and colors.max() <= np.iinfo(np.int16).max):
        keys = colors.astype(np.int16)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    boundaries = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    return np.split(order, boundaries)


def verify_coloring(graph: CSRGraph, colors: np.ndarray) -> bool:
    """True iff no edge connects two vertices of the same color."""
    src, dst = graph.endpoints()
    notself = src != dst
    return not bool(np.any(colors[src[notself]] == colors[dst[notself]]))
