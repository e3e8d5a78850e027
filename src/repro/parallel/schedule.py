"""OpenMP-style loop schedules and their makespan under simulation.

GVE-Leiden uses OpenMP's *dynamic* schedule (chunk 2048) for the vertex
loops.  The simulated runtime needs two things from a schedule: how a loop
is split into chunks, and which thread executes each chunk — from which
the per-thread finishing times (and hence the region makespan) follow.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

DEFAULT_CHUNK = 2048


@dataclass(frozen=True)
class Schedule:
    """A loop schedule: ``kind`` is ``"static"`` or ``"dynamic"``."""

    kind: str = "dynamic"
    chunk: int = DEFAULT_CHUNK

    def __post_init__(self) -> None:
        if self.kind not in ("static", "dynamic"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.chunk < 1:
            raise ValueError("chunk must be >= 1")


def chunk_spans(n_items: int, schedule: Schedule, num_threads: int) -> List[Tuple[int, int]]:
    """Split ``[0, n_items)`` into ``(start, stop)`` chunks per the schedule.

    - ``static``: ``num_threads`` contiguous near-equal blocks;
    - ``dynamic``: fixed-size chunks of ``schedule.chunk`` items.
    """
    if n_items <= 0:
        return []
    if schedule.kind == "static":
        bounds = np.linspace(0, n_items, num_threads + 1).astype(np.int64)
        return [
            (int(bounds[t]), int(bounds[t + 1]))
            for t in range(num_threads)
            if bounds[t + 1] > bounds[t]
        ]
    starts = range(0, n_items, schedule.chunk)
    return [(s, min(s + schedule.chunk, n_items)) for s in starts]


def seeded_chunk_order(n_chunks: int, seed: int) -> np.ndarray:
    """A deterministic seeded permutation of ``[0, n_chunks)``.

    The process executor hands chunks to its task queue in this order: a
    xorshift32 Fisher-Yates shuffle, so the dispatch sequence (a) is
    byte-reproducible for a given seed — the scheduling analogue of the
    simulated runtime's determinism — and (b) decorrelates chunk cost
    from queue position, which is what OpenMP's dynamic schedule achieves
    by handing out chunks to whichever thread frees first.
    """
    from repro.parallel.rng import Xorshift32

    order = np.arange(n_chunks, dtype=np.int64)
    if n_chunks <= 1:
        return order
    rng = Xorshift32((seed & 0xFFFFFFFF) or 1)
    for i in range(n_chunks - 1, 0, -1):
        j = rng.next_below(i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def assign_chunks(
    chunk_costs: np.ndarray,
    num_threads: int,
    schedule: Schedule,
) -> Tuple[np.ndarray, np.ndarray]:
    """Which thread runs each chunk, and when it starts.

    ``static`` assigns chunks round-robin; ``dynamic`` hands each chunk
    to the earliest-free thread, ties to the lowest thread id
    (greedy list scheduling, which is what an OpenMP dynamic loop does up
    to tie-breaking, and which leaves :func:`makespan` unchanged).
    Returns ``(owner, start)`` parallel to ``chunk_costs``: int32 thread
    ids and float64 start times in the costs' units.
    """
    n = chunk_costs.shape[0]
    owner = np.empty(n, dtype=np.int32)
    start = np.empty(n, dtype=np.float64)
    if schedule.kind == "static":
        owner[:] = np.arange(n, dtype=np.int32) % num_threads
        busy = np.zeros(num_threads)
        for c in range(n):
            t = owner[c]
            start[c] = busy[t]
            busy[t] += float(chunk_costs[c])
        return owner, start
    heap = [(0.0, t) for t in range(num_threads)]
    heapq.heapify(heap)
    for c in range(n):
        busy_until, t = heapq.heappop(heap)
        owner[c] = t
        start[c] = busy_until
        heapq.heappush(heap, (busy_until + float(chunk_costs[c]), t))
    return owner, start


def makespan(
    chunk_costs: np.ndarray,
    num_threads: int,
    schedule: Schedule,
    *,
    per_chunk_overhead: float = 0.0,
) -> float:
    """Finish time of the slowest thread for one parallel region.

    ``per_chunk_overhead`` models the scheduler handshake each chunk costs
    under dynamic scheduling.
    """
    costs = np.asarray(chunk_costs, dtype=np.float64)
    if costs.shape[0] == 0:
        return 0.0
    if per_chunk_overhead:
        costs = costs + per_chunk_overhead
    if num_threads <= 1:
        return float(costs.sum())
    if schedule.kind == "static":
        owner = np.arange(costs.shape[0], dtype=np.int64) % num_threads
        per_thread = np.bincount(owner, weights=costs, minlength=num_threads)
        return float(per_thread.max())
    # dynamic: greedy earliest-free assignment
    heap = [0.0] * num_threads
    heapq.heapify(heap)
    for c in costs:
        t = heapq.heappop(heap)
        heapq.heappush(heap, t + float(c))
    return max(heap)
