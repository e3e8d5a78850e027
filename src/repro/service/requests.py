"""Typed requests, the bounded admission queue, and UPDATE coalescing.

Four request kinds flow through the service:

- **DETECT** — register a graph and compute (or reuse) its partition;
- **QUERY** — membership lookups against a served partition;
- **UPDATE** — an :class:`~repro.dynamic.batch.EdgeBatch` to fold in;
- **STATS** — a snapshot of the service counters.

The :class:`AdmissionQueue` is bounded: ``submit`` raises
:class:`~repro.errors.ServiceOverloadError` when full (backpressure —
closed-loop clients drain and retry).  Identical in-flight DETECTs
(same graph content and config, by fingerprint) are deduplicated onto
one ticket, so a thundering herd for a cold graph costs one detection.

:func:`coalesce_update_batches` merges a run of UPDATE batches into a
single batch whose one-shot application is equivalent to applying the
batches sequentially: for every undirected pair, insertions *before*
its last deletion are cancelled, and the pair is deleted first iff any
batch deleted it.  (Within one batch, :func:`~repro.dynamic.batch.
apply_batch` already applies deletions before insertions.)
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import LeidenConfig
from repro.dynamic.batch import EdgeBatch
from repro.errors import ServiceOverloadError
from repro.graph.csr import CSRGraph
from repro.service.fingerprint import partition_key
from repro.types import VERTEX_DTYPE, WEIGHT_DTYPE

__all__ = [
    "DETECT", "QUERY", "UPDATE", "STATS",
    "PENDING", "DONE", "FAILED", "NOT_FOUND",
    "DetectRequest", "QueryRequest", "UpdateRequest", "StatsRequest",
    "Ticket", "AdmissionQueue", "coalesce_update_batches",
]

#: Request kinds.
DETECT = "detect"
QUERY = "query"
UPDATE = "update"
STATS = "stats"

#: Ticket statuses.
PENDING = "pending"
DONE = "done"
FAILED = "failed"
NOT_FOUND = "not_found"

#: Query flavours a :class:`QueryRequest` may carry.
QUERY_KINDS = ("community_of", "members", "neighbor_communities",
               "membership")


@dataclass
class DetectRequest:
    """Register ``graph`` and ensure a partition exists for it."""

    graph: CSRGraph
    config: Optional[LeidenConfig] = None
    kind: str = field(default=DETECT, init=False)

    def store_key(self) -> str:
        return partition_key(self.graph, self.config)


@dataclass
class QueryRequest:
    """A membership lookup against the partition stored under ``key``."""

    key: str
    query: str = "community_of"
    vertex: Optional[int] = None
    community: Optional[int] = None
    kind: str = field(default=QUERY, init=False)

    def __post_init__(self) -> None:
        if self.query not in QUERY_KINDS:
            raise ValueError(
                f"query must be one of {QUERY_KINDS}, got {self.query!r}")


@dataclass
class UpdateRequest:
    """Fold ``batch`` into the partition stored under ``key``."""

    key: str
    batch: EdgeBatch = field(default_factory=EdgeBatch)
    kind: str = field(default=UPDATE, init=False)


@dataclass
class StatsRequest:
    """Snapshot the service counters."""

    kind: str = field(default=STATS, init=False)


@dataclass
class Ticket:
    """Tracks one submitted request through to its response."""

    id: int
    request: object
    status: str = PENDING
    #: JSON-ready response payload (query answers carry numpy arrays).
    response: dict = field(default_factory=dict)
    #: Logical-clock tick at submission (set by the server).
    enqueued_at: int = 0
    #: Logical-clock tick at completion.
    completed_at: int = 0
    #: How many duplicate DETECT submissions were coalesced onto this
    #: ticket (0 for every other request).
    coalesced: int = 0

    @property
    def kind(self) -> str:
        return self.request.kind  # type: ignore[attr-defined]

    @property
    def latency_units(self) -> int:
        return max(self.completed_at - self.enqueued_at, 0)

    @property
    def done(self) -> bool:
        return self.status != PENDING


class AdmissionQueue:
    """Bounded FIFO of tickets with DETECT deduplication.

    A ``recorder`` makes rejections visible as the
    ``queue_rejected_total`` counter — overflow otherwise surfaces only
    through the raised
    :class:`~repro.errors.ServiceOverloadError` and the ``rejected``
    stats field, which dashboards never scrape.
    """

    def __init__(self, capacity: int = 256, *, recorder=None) -> None:
        from repro.observability.recorder import NULL_RECORDER

        self.capacity = int(capacity)
        self._queue: Deque[Ticket] = deque()
        self._ids = itertools.count(1)
        #: In-flight DETECT tickets by store key (queued or computing).
        self._inflight_detects: Dict[str, Ticket] = {}
        self.submitted = 0
        self.rejected = 0
        self.coalesced_detects = 0
        self.max_depth = 0
        self.recorder = (recorder if recorder is not None
                         else NULL_RECORDER)
        if self.recorder.enabled:
            self.recorder.family(
                "counter", "queue_rejected_total",
                "submissions rejected by admission-queue backpressure")

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def depth(self) -> int:
        return len(self._queue)

    def submit(self, request, *, now: int = 0) -> Ticket:
        """Enqueue ``request``; dedup DETECTs; raise when full."""
        if request.kind == DETECT:
            existing = self._inflight_detects.get(request.store_key())
            if existing is not None and not existing.done:
                existing.coalesced += 1
                self.coalesced_detects += 1
                self.submitted += 1
                return existing
        if len(self._queue) >= self.capacity:
            self.rejected += 1
            if self.recorder.enabled:
                self.recorder.metric("queue_rejected_total", 1)
            raise ServiceOverloadError(
                f"admission queue full ({self.capacity} requests); "
                "drain or back off and resubmit")
        ticket = Ticket(id=next(self._ids), request=request, enqueued_at=now)
        self._queue.append(ticket)
        self.submitted += 1
        if request.kind == DETECT:
            self._inflight_detects[request.store_key()] = ticket
        self.max_depth = max(self.max_depth, len(self._queue))
        return ticket

    def pop(self) -> Optional[Ticket]:
        """Next ticket in FIFO order, or ``None`` when idle."""
        if not self._queue:
            return None
        return self._queue.popleft()

    def pop_matching_updates(self, key: str) -> List[Ticket]:
        """Dequeue every queued UPDATE for ``key`` (micro-batching).

        Called when an UPDATE for ``key`` reaches the head: the whole
        backlog for that partition rides the same refresh.
        """
        matched = [t for t in self._queue
                   if t.kind == UPDATE and t.request.key == key]
        if matched:
            taken = set(map(id, matched))
            self._queue = deque(
                t for t in self._queue if id(t) not in taken)
        return matched

    def finish_detect(self, key: str) -> None:
        """Drop the in-flight marker once a DETECT completed."""
        self._inflight_detects.pop(key, None)

    def stats(self) -> Dict[str, int]:
        return {
            "capacity": self.capacity,
            "depth": self.depth,
            "submitted": self.submitted,
            "rejected": self.rejected,
            "coalesced_detects": self.coalesced_detects,
            "max_depth": self.max_depth,
        }


def coalesce_update_batches(batches: Sequence[EdgeBatch]) -> EdgeBatch:
    """Merge ``batches`` into one sequentially-equivalent batch.

    Per canonical undirected pair: the merged batch deletes the pair iff
    any input batch deleted it, and keeps only the insertions issued
    *after* the pair's last deletion (earlier ones would have been wiped
    by that deletion).  Since one-shot application removes deleted pairs
    before adding insertions, the surviving insertions land on the same
    post-deletion state as in sequential application.
    """
    if len(batches) == 1:
        return batches[0]
    if not batches:
        return EdgeBatch()

    isrc = [b.insert_sources for b in batches]
    idst = [b.insert_targets for b in batches]
    iwgt = [b.insert_weights for b in batches]
    dsrc = [b.delete_sources for b in batches]
    ddst = [b.delete_targets for b in batches]
    # Operation order: batch index is enough — within one batch,
    # deletions precede insertions (apply_batch semantics), so an
    # insertion in batch i survives a deletion in batch j iff i >= j.
    ins_order = np.concatenate([
        np.full(s.shape[0], i, dtype=np.int64)
        for i, s in enumerate(isrc)]) if isrc else np.empty(0, dtype=np.int64)
    del_order = np.concatenate([
        np.full(s.shape[0], i, dtype=np.int64)
        for i, s in enumerate(dsrc)]) if dsrc else np.empty(0, dtype=np.int64)
    isrc_all = np.concatenate(isrc) if isrc else np.empty(0, VERTEX_DTYPE)
    idst_all = np.concatenate(idst) if idst else np.empty(0, VERTEX_DTYPE)
    iwgt_all = np.concatenate(iwgt) if iwgt else np.empty(0, WEIGHT_DTYPE)
    dsrc_all = np.concatenate(dsrc) if dsrc else np.empty(0, VERTEX_DTYPE)
    ddst_all = np.concatenate(ddst) if ddst else np.empty(0, VERTEX_DTYPE)

    if dsrc_all.shape[0] == 0:
        return EdgeBatch(isrc_all, idst_all, iwgt_all, dsrc_all, ddst_all)

    n = int(max(isrc_all.max(initial=-1), idst_all.max(initial=-1),
                dsrc_all.max(initial=-1), ddst_all.max(initial=-1))) + 1
    dlo = np.minimum(dsrc_all, ddst_all).astype(np.int64)
    dhi = np.maximum(dsrc_all, ddst_all).astype(np.int64)
    dkeys = dlo * n + dhi
    # Last batch index that deleted each pair.
    uniq_dkeys, inverse = np.unique(dkeys, return_inverse=True)
    last_del = np.full(uniq_dkeys.shape[0], -1, dtype=np.int64)
    np.maximum.at(last_del, inverse, del_order)

    if isrc_all.shape[0]:
        ilo = np.minimum(isrc_all, idst_all).astype(np.int64)
        ihi = np.maximum(isrc_all, idst_all).astype(np.int64)
        ikeys = ilo * n + ihi
        slot = np.searchsorted(uniq_dkeys, ikeys)
        slot = np.clip(slot, 0, uniq_dkeys.shape[0] - 1)
        deleted = uniq_dkeys[slot] == ikeys
        # Keep insertions from batches at-or-after the pair's last delete.
        keep = ~deleted | (ins_order >= last_del[slot])
        isrc_all, idst_all = isrc_all[keep], idst_all[keep]
        iwgt_all = iwgt_all[keep]

    # Deduplicate the deletion list (first occurrence per canonical pair).
    order = np.argsort(dkeys, kind="stable")
    sorted_keys = dkeys[order]
    firsts = order[np.concatenate([
        [True], sorted_keys[1:] != sorted_keys[:-1]])]
    return EdgeBatch(isrc_all, idst_all, iwgt_all,
                     dsrc_all[firsts], ddst_all[firsts])
