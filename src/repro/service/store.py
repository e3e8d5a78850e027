"""Versioned partition store: byte-budgeted LRU with staleness states.

One :class:`PartitionEntry` holds everything needed to serve a graph:
the graph itself, the current membership, the prebuilt
:class:`~repro.service.index.CommunityIndex`, a monotonically increasing
version and a freshness state.  The store implements
*stale-while-revalidate*: a lookup returns stale entries too (callers
serve them and count a ``stale_hit``) so the query path never blocks on
a refresh; the server swaps in the fresh version when its refresh
commits.

Eviction is least-recently-used over a byte budget.  Entry size counts
the graph arrays, the membership and the index; the most recently
touched entry is never evicted, so a store whose budget is smaller than
a single partition still serves it (and reports being over budget).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.dynamic.batch import EdgeBatch
from repro.graph.csr import CSRGraph
from repro.observability.recorder import NULL_RECORDER
from repro.service.index import CommunityIndex

__all__ = ["FRESH", "STALE", "DEGRADED", "PartitionEntry", "PartitionStore"]

#: Entry states.  ``FRESH`` — partition matches the entry's graph;
#: ``STALE`` — updates are pending or a refresh is in flight, the stored
#: partition is the last good one; ``DEGRADED`` — the last refresh
#: failed permanently, the stored partition is the last good one.
FRESH = "fresh"
STALE = "stale"
DEGRADED = "degraded"


@dataclass
class PartitionEntry:
    """One served graph: partition, index and refresh bookkeeping."""

    key: str
    fingerprint: str
    graph: CSRGraph
    membership: np.ndarray
    index: CommunityIndex
    version: int = 1
    state: str = FRESH
    #: Update batches accepted but not yet folded into the partition.
    pending: List[EdgeBatch] = field(default_factory=list)

    @property
    def nbytes(self) -> int:
        g = self.graph
        return int(g.offsets.nbytes + g.targets.nbytes + g.weights.nbytes
                   + g.degrees.nbytes + self.membership.nbytes
                   + self.index.nbytes)

    @property
    def num_communities(self) -> int:
        return self.index.num_communities

    def describe(self) -> dict:
        """Deterministic JSON-ready snapshot (no wall-clock fields)."""
        return {
            "fingerprint": self.fingerprint,
            "version": self.version,
            "state": self.state,
            "num_vertices": int(self.graph.num_vertices),
            "num_edges": int(self.graph.num_edges),
            "num_communities": int(self.num_communities),
            "pending_updates": len(self.pending),
        }


class PartitionStore:
    """Byte-budgeted LRU of :class:`PartitionEntry` objects.

    With a ``recorder``, every resident entry is a live ``store``
    allocation (freed on eviction/discard/replace), so the memory
    report shows LRU bytes, and lookups, evictions and resident bytes
    are metric updates.
    :attr:`peak_bytes` is the resident high-water mark the store stats
    report.
    """

    def __init__(self, budget_bytes: int = 256 * 2**20, *,
                 recorder=None) -> None:
        self.budget_bytes = int(budget_bytes)
        self._entries: "OrderedDict[str, PartitionEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stale_hits = 0
        self.evictions = 0
        #: High-water mark of resident bytes across the store's life.
        self.peak_bytes = 0
        self._mem_handles: Dict[str, int] = {}
        self.recorder = rec = (recorder if recorder is not None
                               else NULL_RECORDER)
        if rec.enabled:
            rec.family("counter", "service_store_lookups_total",
                       "partition-store lookups, by outcome", ("outcome",))
            for outcome in ("hit", "stale_hit", "miss"):
                rec.metric("service_store_lookups_total", 0, outcome)
            rec.family("counter", "service_store_evictions_total",
                       "LRU evictions over budget")
            rec.family("gauge", "mem_store_bytes",
                       "resident bytes across all entries")

    # -- lookup -----------------------------------------------------------

    def get(self, key: str, *, touch: bool = True) -> Optional[PartitionEntry]:
        """The entry for ``key`` or ``None``; counts hit/miss/stale-hit.

        Stale and degraded entries are returned (stale-while-revalidate);
        the caller decides whether serving them is acceptable.
        """
        entry = self._entries.get(key)
        rec = self.recorder
        if entry is None:
            self.misses += 1
            if rec.enabled:
                rec.metric("service_store_lookups_total", 1, "miss")
            return None
        if touch:
            self._entries.move_to_end(key)
        self.hits += 1
        stale = entry.state != FRESH
        if stale:
            self.stale_hits += 1
        if rec.enabled:
            rec.metric("service_store_lookups_total", 1, "hit")
            if stale:
                rec.metric("service_store_lookups_total", 1, "stale_hit")
        return entry

    def peek(self, key: str) -> Optional[PartitionEntry]:
        """Lookup without touching LRU order or counters."""
        return self._entries.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> List[str]:
        return list(self._entries)

    # -- mutation ---------------------------------------------------------

    def put(self, entry: PartitionEntry) -> None:
        """Insert or replace ``entry`` and evict LRU past the budget."""
        self._mem_free(entry.key)
        self._entries[entry.key] = entry
        self._entries.move_to_end(entry.key)
        rec = self.recorder
        if rec.enabled:
            self._mem_handles[entry.key] = rec.alloc(
                "store", entry.key, entry.nbytes, phase="service")
        self._evict()
        total = self.total_bytes
        if total > self.peak_bytes:
            self.peak_bytes = total
        if rec.enabled:
            rec.metric("mem_store_bytes", total)

    def discard(self, key: str) -> None:
        self._entries.pop(key, None)
        self._mem_free(key)

    def _evict(self) -> None:
        # Never evict the most recently touched entry: a single
        # over-budget partition must still be servable.
        while len(self._entries) > 1 and self.total_bytes > self.budget_bytes:
            key, _ = self._entries.popitem(last=False)
            self._mem_free(key)
            self.evictions += 1
            if self.recorder.enabled:
                self.recorder.metric("service_store_evictions_total", 1)

    def _mem_free(self, key: str) -> None:
        handle = self._mem_handles.pop(key, None)
        if handle is not None:
            self.recorder.free(handle)

    # -- accounting -------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        return sum(e.nbytes for e in self._entries.values())

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, object]:
        return {
            "entries": len(self._entries),
            "bytes": int(self.total_bytes),
            "budget_bytes": int(self.budget_bytes),
            "peak_bytes": int(self.peak_bytes),
            "hits": self.hits,
            "misses": self.misses,
            "stale_hits": self.stale_hits,
            "evictions": self.evictions,
        }
