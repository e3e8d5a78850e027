"""The partition server: a deterministic in-process event loop.

:class:`PartitionServer` routes typed requests from the bounded
admission queue to the store, the detection engine and the incremental
updater:

- **DETECT** computes a partition (or reuses a fresh cached one keyed by
  graph fingerprint + config) and registers the graph for serving;
- **QUERY** is answered from the stored :class:`~repro.service.index.
  CommunityIndex` — fresh or stale, never by recomputing — so the query
  path stays O(1)/O(deg) regardless of refresh traffic;
- **UPDATE** batches are *accepted* cheaply (the entry turns stale and
  keeps serving) and folded in lazily: a refresh fires once the pending
  backlog reaches ``max_pending_updates`` or on :meth:`drain`, and a
  whole backlog rides one coalesced
  :func:`~repro.dynamic.update.dynamic_leiden`-style solve;
- **STATS** snapshots the counters.

Refreshes fall back from incremental to a full recompute when the
affected-vertex fraction (the frontier estimate: touched vertices over
graph size) exceeds ``full_recompute_threshold``.  Every solve runs
under an injectable fault hook with bounded retry-with-backoff; after
the retry budget the entry degrades to its last good partition instead
of failing the serving path.  On :meth:`drain` the server reconciles:
incrementally-refreshed partitions are recomputed from scratch so the
served membership is identical to a cold :func:`~repro.core.leiden.
leiden` run on the final graph.

Time is a logical clock (work units from the solver ledger, one unit
per queue operation), which makes latency percentiles — and the whole
stats document — deterministic for a given request sequence.  Wall-clock
latencies are reported separately through the tracer histogram
(``service_latency_units`` / per-request spans).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.config import LeidenConfig
from repro.core.leiden import leiden
from repro.dynamic.batch import apply_batch
from repro.dynamic.strategies import affected_vertices
from repro.errors import ServiceError
from repro.observability.metrics import NULL_REGISTRY, exact_percentile
from repro.observability.tracer import NULL_TRACER
from repro.parallel.runtime import Runtime
from repro.service.index import CommunityIndex
from repro.service.requests import (
    DETECT,
    DONE,
    FAILED,
    NOT_FOUND,
    QUERY,
    STATS,
    UPDATE,
    AdmissionQueue,
    DetectRequest,
    QueryRequest,
    StatsRequest,
    Ticket,
    UpdateRequest,
    coalesce_update_batches,
)
from repro.service.store import DEGRADED, FRESH, STALE, PartitionEntry, PartitionStore
from repro.types import VERTEX_DTYPE

__all__ = ["ServiceConfig", "PartitionServer", "percentile"]

#: Version tag of the deterministic stats document.
STATS_SCHEMA = "repro.service-stats/1"


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the partition server."""

    #: Detection config every solve uses (also part of the store key).
    leiden: LeidenConfig = field(default_factory=LeidenConfig)
    #: Byte budget of the partition store's LRU.
    store_budget_bytes: int = 256 * 2**20
    #: Admission queue capacity (backpressure beyond this).
    queue_capacity: int = 256
    #: Pending update batches that trigger a refresh before drain.
    max_pending_updates: int = 8
    #: Affected-vertex fraction above which a refresh recomputes from
    #: scratch instead of warm-starting (the incremental fallback).
    full_recompute_threshold: float = 0.25
    #: Affected-vertex strategy for incremental refreshes.
    approach: str = "frontier"
    #: Merge a flush's pending batches into one solve (the micro-batching
    #: optimization; disable for the one-solve-per-update ablation).
    coalesce_updates: bool = True
    #: Recompute incrementally-refreshed partitions from scratch when the
    #: queue drains, making served memberships identical to a cold run.
    reconcile_on_drain: bool = True
    #: Retries per failing solve before degrading to last-good.
    max_retries: int = 2
    #: Logical-clock units added per retry (doubles per attempt).
    backoff_units: int = 64
    #: Logical-clock units a queue/lookup operation costs.
    query_cost_units: int = 1

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ServiceError("queue_capacity must be >= 1")
        if self.max_pending_updates < 1:
            raise ServiceError("max_pending_updates must be >= 1")
        if not (0.0 <= self.full_recompute_threshold <= 1.0):
            raise ServiceError(
                "full_recompute_threshold must be in [0, 1]")
        if self.max_retries < 0:
            raise ServiceError("max_retries must be >= 0")


def percentile(values: List[int], q: float) -> int:
    """Nearest-rank percentile of ``values`` (0 for an empty list).

    Thin integer wrapper over the shared
    :func:`repro.observability.metrics.exact_percentile` — kept so the
    committed service-stats baselines stay bitwise identical.
    """
    return int(exact_percentile(values, q))


class _ComputeFailed(ServiceError):
    """Internal: a solve exhausted its retry budget."""


class PartitionServer:
    """Deterministic single-threaded partition-serving event loop.

    Parameters
    ----------
    config:
        Service tunables (:class:`ServiceConfig`).
    tracer:
        Observability tracer; spans and the wall-latency histogram are
        reported here.  Defaults to the disabled tracer.
    profiler:
        Thread-timeline profiler; request intervals land on a dedicated
        ``service`` lane of the Chrome trace (on the logical clock) and
        the per-region events of every solve join the same event
        stream.  Defaults to the disabled profiler.
    fault_hook:
        ``callable(op, attempt)`` invoked before every solve attempt
        (``op`` in ``{"detect", "refresh", "reconcile"}``).  Raising
        makes the attempt fail; the server retries with backoff and
        degrades to the last good partition when the budget is spent.
        The injection point for fault testing.
    metrics:
        :class:`~repro.observability.metrics.MetricsRegistry` the server
        (and every solve it runs) reports typed instruments to; defaults
        to the disabled :data:`~repro.observability.metrics.NULL_REGISTRY`.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        tracer=None,
        profiler=None,
        fault_hook: Optional[Callable[[str, int], None]] = None,
        metrics=None,
        memory=None,
    ) -> None:
        from repro.observability.profiler import NULL_PROFILER

        self.config = config or ServiceConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.memory = memory
        self.store = PartitionStore(self.config.store_budget_bytes,
                                    metrics=self.metrics,
                                    memory=memory)
        self.queue = AdmissionQueue(self.config.queue_capacity,
                                    metrics=self.metrics)
        self.fault_hook = fault_hook
        m = self.metrics
        self._m_requests = m.counter(
            "service_requests_total",
            "requests completed, by kind and final status",
            ("kind", "status"))
        self._m_latency = m.histogram(
            "service_latency_units",
            "request latency in logical-clock units, by kind", ("kind",))
        self._m_queue_depth = m.gauge(
            "service_queue_depth", "admission-queue depth after last op")
        self._m_detect_dedups = m.counter(
            "service_detect_dedups_total",
            "DETECT submissions coalesced onto an in-flight ticket")
        self._m_coalesced = m.counter(
            "service_updates_coalesced_total",
            "update batches merged into another batch's solve")
        self._m_refreshes = m.counter(
            "service_refreshes_total",
            "partition refreshes, by solve mode", ("mode",))
        self._m_retries = m.counter(
            "service_solve_retries_total", "solve attempts retried")
        self._m_failures = m.counter(
            "service_solve_failures_total",
            "solves failed past the retry budget")
        self._m_flush_batches = m.histogram(
            "service_flush_batches", "pending batches folded per flush")
        #: Logical clock, in solver work units.
        self.clock = 0
        self.counters: Dict[str, int] = {
            "detect_runs": 0,
            "detect_cache_hits": 0,
            "queries_served": 0,
            "queries_served_stale": 0,
            "queries_not_found": 0,
            "updates_accepted": 0,
            "updates_coalesced": 0,
            "update_flushes": 0,
            "incremental_refreshes": 0,
            "full_recomputes": 0,
            "reconciles": 0,
            "solve_retries": 0,
            "solve_failures": 0,
        }
        self._requests_by_kind: Dict[str, int] = {
            DETECT: 0, QUERY: 0, UPDATE: 0, STATS: 0,
        }
        self._latencies: Dict[str, List[int]] = {
            DETECT: [], QUERY: [], UPDATE: [], STATS: [],
        }
        #: Update tickets awaiting their flush, per store key.
        self._pending_tickets: Dict[str, List[Ticket]] = {}
        #: Keys whose current partition came from an incremental refresh
        #: (reconcile targets).
        self._unreconciled: set[str] = set()

    # -- client API -------------------------------------------------------

    def submit(self, request) -> Ticket:
        """Admit ``request``; raises ``ServiceOverloadError`` when full."""
        dedups_before = self.queue.coalesced_detects
        ticket = self.queue.submit(request, now=self.clock)
        self._requests_by_kind[request.kind] += 1
        if self.metrics.enabled:
            self._m_detect_dedups.inc(
                self.queue.coalesced_detects - dedups_before)
            self._m_queue_depth.set(self.queue.depth)
        return ticket

    def step(self) -> Optional[Ticket]:
        """Process the next queued request; ``None`` when idle."""
        ticket = self.queue.pop()
        if ticket is None:
            return None
        req = ticket.request
        tracer = self.tracer
        t0 = perf_counter() if tracer.enabled else 0.0
        u0 = self.clock
        with tracer.span(f"service.{req.kind}"):
            if req.kind == DETECT:
                self._process_detect(ticket)
            elif req.kind == QUERY:
                self._process_query(ticket)
            elif req.kind == UPDATE:
                self._process_update(ticket)
            else:
                self._process_stats(ticket)
            if tracer.enabled:
                tracer.observe("service_request_seconds",
                               perf_counter() - t0)
        if self.profiler.enabled:
            # Request-latency event on the service lane, measured on the
            # logical clock (work units) — deterministic like the stats.
            self.profiler.request(
                f"service.{req.kind}",
                max(float(self.clock - u0), 1.0),
                status=ticket.status,
            )
        if self.metrics.enabled:
            self._m_queue_depth.set(self.queue.depth)
        return ticket

    def drain(self) -> int:
        """Run until idle: empty the queue, flush every pending update,
        then reconcile (when configured).  Returns processed requests."""
        processed = 0
        while self.step() is not None:
            processed += 1
        for key in self.store.keys():
            self._flush(key)
        if self.config.reconcile_on_drain:
            # Sorted: set order depends on hash randomization, and the
            # reconcile order is observable (last-solve gauges, float
            # accumulation order in metric counters).
            for key in sorted(self._unreconciled):
                self._reconcile(key)
        return processed

    # -- convenience (submit + drain) -------------------------------------

    def detect(self, graph, config: LeidenConfig | None = None) -> Ticket:
        """Synchronous DETECT: submit, process, return the ticket."""
        ticket = self.submit(DetectRequest(graph, config))
        while not ticket.done:
            self.step()
        return ticket

    def query(self, key: str, query: str = "community_of", *,
              vertex: int | None = None,
              community: int | None = None) -> Ticket:
        """Synchronous QUERY."""
        ticket = self.submit(QueryRequest(key, query, vertex=vertex,
                                          community=community))
        while not ticket.done:
            self.step()
        return ticket

    def update(self, key: str, batch) -> Ticket:
        """Asynchronous UPDATE: accepted now, committed at flush."""
        return self.submit(UpdateRequest(key, batch))

    def stats_snapshot(self) -> dict:
        """Synchronous STATS."""
        ticket = self.submit(StatsRequest())
        while not ticket.done:
            self.step()
        return ticket.response

    # -- request processing ----------------------------------------------

    def _tick(self, units: int) -> None:
        self.clock += int(units)

    def _complete(self, ticket: Ticket, status: str = DONE) -> None:
        ticket.status = status
        ticket.completed_at = self.clock
        lat = ticket.latency_units
        self._latencies[ticket.kind].append(lat)
        tracer = self.tracer
        if tracer.enabled:
            tracer.observe("service_latency_units", float(lat))
        if self.metrics.enabled:
            self._m_requests.labels(ticket.kind, status).inc()
            self._m_latency.labels(ticket.kind).observe(float(lat))

    def _process_detect(self, ticket: Ticket) -> None:
        req: DetectRequest = ticket.request
        key = req.store_key()
        cfg = req.config or self.config.leiden
        entry = self.store.peek(key)
        fp = req.graph.fingerprint()
        try:
            if entry is not None and entry.state == FRESH \
                    and entry.fingerprint == fp:
                self.counters["detect_cache_hits"] += 1
                self._tick(self.config.query_cost_units)
            else:
                result = self._solve(
                    "detect", lambda rt: leiden(req.graph, cfg, runtime=rt))
                membership = np.ascontiguousarray(
                    result.membership, dtype=VERTEX_DTYPE)
                entry = PartitionEntry(
                    key=key,
                    fingerprint=fp,
                    graph=req.graph,
                    membership=membership,
                    index=CommunityIndex(membership),
                )
                self.store.put(entry)
                self.counters["detect_runs"] += 1
                self._unreconciled.discard(key)
        except _ComputeFailed:
            self.queue.finish_detect(key)
            ticket.response = {"key": key, "error": "detection failed"}
            self._complete(ticket, FAILED)
            return
        self.queue.finish_detect(key)
        ticket.response = {
            "key": key,
            "fingerprint": entry.fingerprint,
            "version": entry.version,
            "num_communities": entry.num_communities,
        }
        self._complete(ticket)

    def _process_query(self, ticket: Ticket) -> None:
        req: QueryRequest = ticket.request
        entry = self.store.get(req.key)
        self._tick(self.config.query_cost_units)
        if entry is None:
            self.counters["queries_not_found"] += 1
            ticket.response = {"key": req.key, "error": "unknown partition"}
            self._complete(ticket, NOT_FOUND)
            return
        index = entry.index
        if req.query == "community_of":
            value = index.community_of(req.vertex)
        elif req.query == "members":
            value = index.members_slice(req.community).copy()
        elif req.query == "neighbor_communities":
            comms, weights = index.neighbor_communities(
                entry.graph, req.vertex)
            value = {"communities": comms, "weights": weights}
        else:  # membership
            value = entry.membership
        self.counters["queries_served"] += 1
        if entry.state != FRESH:
            self.counters["queries_served_stale"] += 1
        ticket.response = {
            "key": req.key,
            "value": value,
            "version": entry.version,
            "state": entry.state,
        }
        self._complete(ticket)

    def _process_update(self, ticket: Ticket) -> None:
        req: UpdateRequest = ticket.request
        entry = self.store.peek(req.key)
        self._tick(self.config.query_cost_units)
        if entry is None:
            ticket.response = {"key": req.key, "error": "unknown partition"}
            self._complete(ticket, NOT_FOUND)
            return
        # Micro-batching: the whole queued backlog for this partition
        # rides the same refresh as the head request.
        accepted = [ticket] + self.queue.pop_matching_updates(req.key)
        for t in accepted:
            entry.pending.append(t.request.batch)
            self._pending_tickets.setdefault(req.key, []).append(t)
            self.counters["updates_accepted"] += 1
        entry.state = STALE
        if len(entry.pending) >= self.config.max_pending_updates:
            self._flush(req.key)

    def _process_stats(self, ticket: Ticket) -> None:
        self._tick(self.config.query_cost_units)
        ticket.response = self.stats()
        self._complete(ticket)

    # -- refresh ----------------------------------------------------------

    def _flush(self, key: str) -> None:
        """Fold the pending update batches of ``key`` into its partition."""
        entry = self.store.peek(key)
        if entry is None or not entry.pending:
            return
        batches = entry.pending
        entry.pending = []
        tickets = self._pending_tickets.pop(key, [])
        if self.config.coalesce_updates and len(batches) > 1:
            self.counters["updates_coalesced"] += len(batches) - 1
            self._m_coalesced.inc(len(batches) - 1)
            batches = [coalesce_update_batches(batches)]
        self.counters["update_flushes"] += 1
        self._m_flush_batches.observe(len(batches))

        graph, membership = entry.graph, entry.membership
        status = DONE
        last_was_full = False
        with self.tracer.span("service.flush", key=key,
                              batches=len(batches)):
            for batch in batches:
                try:
                    graph, membership, incremental = self._refresh_once(
                        graph, membership, batch)
                    last_was_full = not incremental
                except _ComputeFailed:
                    # Keep serving the last good partition; the
                    # remaining batches of this flush are dropped.
                    entry.state = DEGRADED
                    status = FAILED
                    break
        if status == DONE:
            entry.graph = graph
            entry.membership = np.ascontiguousarray(
                membership, dtype=VERTEX_DTYPE)
            entry.index = CommunityIndex(entry.membership)
            entry.fingerprint = graph.fingerprint()
            entry.version += 1
            entry.state = FRESH
            if last_was_full:
                self._unreconciled.discard(key)
            else:
                self._unreconciled.add(key)
        self.store.put(entry)
        for t in tickets:
            t.response = {"key": key, "version": entry.version,
                          "state": entry.state}
            self._complete(t, status)

    def _refresh_once(self, graph, membership, batch):
        """One solve folding ``batch`` in; incremental or full fallback.

        The fallback decision uses the frontier estimate — touched
        vertices over current graph size — which for the default
        ``frontier`` approach equals the exact affected fraction,
        without paying for the batch application up front.
        """
        n = max(graph.num_vertices, 1)
        frontier_frac = batch.touched_vertices().shape[0] / n
        updated = apply_batch(graph, batch)
        if frontier_frac > self.config.full_recompute_threshold:
            result = self._solve(
                "refresh",
                lambda rt: leiden(updated, self.config.leiden, runtime=rt))
            self.counters["full_recomputes"] += 1
            self._m_refreshes.labels("full").inc()
            return updated, result.membership, False
        warm = self._pad_membership(membership, updated.num_vertices)
        mask = affected_vertices(updated, warm, batch,
                                 approach=self.config.approach)
        result = self._solve(
            "refresh",
            lambda rt: leiden(updated, self.config.leiden, runtime=rt,
                              initial_membership=warm, affected=mask))
        self.counters["incremental_refreshes"] += 1
        self._m_refreshes.labels("incremental").inc()
        if self.tracer.enabled:
            self.tracer.observe("service_affected_fraction",
                                float(mask.mean()) if mask.shape[0] else 0.0)
        return updated, result.membership, True

    @staticmethod
    def _pad_membership(membership, n_new: int) -> np.ndarray:
        """Extend a membership over newly appearing vertices (fresh
        singleton communities), mirroring ``dynamic_leiden``."""
        old = np.asarray(membership, dtype=VERTEX_DTYPE)
        if n_new > old.shape[0]:
            extra = np.arange(n_new - old.shape[0], dtype=VERTEX_DTYPE)
            return np.concatenate([old, old.max(initial=-1) + 1 + extra])
        return old[:n_new].copy()

    def _reconcile(self, key: str) -> None:
        """Replace an incrementally-refreshed partition with a
        from-scratch solve on the entry's current graph."""
        entry = self.store.peek(key)
        if entry is None:
            self._unreconciled.discard(key)
            return
        try:
            result = self._solve(
                "reconcile",
                lambda rt: leiden(entry.graph, self.config.leiden,
                                  runtime=rt))
        except _ComputeFailed:
            entry.state = DEGRADED
            return
        entry.membership = np.ascontiguousarray(
            result.membership, dtype=VERTEX_DTYPE)
        entry.index = CommunityIndex(entry.membership)
        entry.version += 1
        entry.state = FRESH
        self.counters["reconciles"] += 1
        self._m_refreshes.labels("reconcile").inc()
        self._unreconciled.discard(key)

    # -- solving with fault tolerance --------------------------------------

    def _solve(self, op: str, fn):
        """Run one solve with retry-with-backoff around the fault hook.

        A fresh :class:`~repro.parallel.runtime.Runtime` per attempt
        keeps every solve deterministic and independent of history; the
        shared tracer still collects all spans.  Advances the logical
        clock by the solve's ledger work (and by the backoff on
        retries).  Raises :class:`_ComputeFailed` past the retry budget.
        """
        last_exc: Exception | None = None
        for attempt in range(self.config.max_retries + 1):
            try:
                if self.fault_hook is not None:
                    self.fault_hook(op, attempt)
                rt = Runtime(num_threads=1, seed=self.config.leiden.seed,
                             tracer=self.tracer, profiler=self.profiler,
                             metrics=self.metrics)
                result = fn(rt)
            except _ComputeFailed:
                raise
            except Exception as exc:  # injected faults, solver errors
                last_exc = exc
                if attempt < self.config.max_retries:
                    self.counters["solve_retries"] += 1
                    self._m_retries.inc()
                    self._tick(self.config.backoff_units << attempt)
                continue
            self._tick(round(result.ledger.total_work))
            return result
        self.counters["solve_failures"] += 1
        self._m_failures.inc()
        raise _ComputeFailed(
            f"{op} failed after {self.config.max_retries + 1} attempts"
        ) from last_exc

    # -- observability ----------------------------------------------------

    def stats(self) -> dict:
        """Deterministic stats document (no wall-clock fields)."""
        lat = {
            kind: {
                "count": len(values),
                "p50": percentile(values, 50.0),
                "p99": percentile(values, 99.0),
                "max": max(values) if values else 0,
            }
            for kind, values in sorted(self._latencies.items())
        }
        queries = self.counters["queries_served"]
        not_found = self.counters["queries_not_found"]
        served_frac = (queries / (queries + not_found)
                       if queries + not_found else 0.0)
        return {
            "schema": STATS_SCHEMA,
            "clock_units": int(self.clock),
            "requests": dict(sorted(self._requests_by_kind.items())),
            "counters": dict(sorted(self.counters.items())),
            "queue": self.queue.stats(),
            "store": self.store.stats(),
            "derived": {
                "cache_hit_rate": round(self.store.hit_rate(), 6),
                "query_served_fraction": round(served_frac, 6),
                "stale_serve_fraction": round(
                    self.counters["queries_served_stale"] / queries, 6)
                    if queries else 0.0,
            },
            "latency_units": lat,
            "partitions": {
                key: self.store.peek(key).describe()
                for key in sorted(self.store.keys())
            },
        }
