"""Deterministic request routing across the partition-server fleet.

The router is the only component that talks to more than one shard:

- **DETECT/UPDATE** go to *every* alive shard in the key's ring
  placement, keeping replicas byte-identical (each shard runs the same
  deterministic solve); the per-shard admission queues still apply
  their own backpressure and DETECT dedup, so a thundering herd for a
  cold key costs one solve per replica;
- **QUERY** goes to the first alive shard of the placement.  When that
  is not the primary, the request has *failed over*: the replica serves
  it, but the response is marked ``state = "degraded"`` — the fleet
  analogue of the server's own retry/degrade path, which keeps serving
  the last good partition rather than failing the request;
- **fan-out QUERY** broadcasts one query per registered key to its
  owning shard and merges the answers deterministically (keys sorted,
  shard groups sorted by shard id), producing byte-identical JSON for a
  given fleet state.  The ``answers`` block depends only on the stored
  partitions, never on the shard count, which is what the 1/2/4-shard
  invariance gate compares.

Requests complete inside :meth:`FleetRouter.pump`, which steps the
shards in fleet order until every queue is idle — single-threaded and
deterministic, one logical clock per shard.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ServiceOverloadError
from repro.observability.metrics import NULL_REGISTRY
from repro.observability.reqtrace import NULL_REQTRACE
from repro.service.fingerprint import partition_key
from repro.service.requests import (
    DETECT,
    DONE,
    FAILED,
    QUERY,
    UPDATE,
    DetectRequest,
    QueryRequest,
    Ticket,
    UpdateRequest,
)
from repro.service.store import DEGRADED

__all__ = ["Shard", "FleetTicket", "FleetRouter", "FANOUT_SCHEMA"]

#: Version tag of the merged fan-out document.
FANOUT_SCHEMA = "repro.fleet-fanout/1"


@dataclass
class Shard:
    """One fleet member: a partition server plus liveness bookkeeping."""

    id: str
    server: object  # PartitionServer
    alive: bool = True
    #: Per-shard MetricsRegistry when the fleet runs instrumented.
    metrics: Optional[object] = None
    #: Per-shard MemoryLedger when the fleet tracks memory.
    memory: Optional[object] = None

    def describe(self) -> dict:
        return {"id": self.id, "alive": self.alive}


def _jsonify(value):
    """JSON-ready copy of a query answer (numpy arrays become lists)."""
    if isinstance(value, np.ndarray):
        return [int(v) if np.issubdtype(value.dtype, np.integer)
                else float(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in sorted(value.items())}
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


@dataclass
class FleetTicket:
    """One fleet-level request tracked across its replica tickets."""

    key: str
    kind: str
    placement: Tuple[str, ...]
    #: ``(shard_id, ticket)`` per shard the request was submitted to.
    tickets: List[Tuple[str, Ticket]] = field(default_factory=list)
    #: The routing decision skipped a dead primary.
    failover: bool = False
    #: No alive shard could take the request at submission.
    no_replica: bool = False
    #: Request-trace context (:class:`~repro.fleet.tracectx.
    #: TraceContext`) when tracing is on; the router seals it at
    #: finalization.
    trace: Optional[object] = None

    @property
    def done(self) -> bool:
        if self.no_replica:
            return True
        return all(t.done for _, t in self.tickets)

    def _serving(self) -> Optional[Tuple[str, Ticket]]:
        """The replica ticket the fleet answer comes from.

        The first (placement-order) ticket that completed ``DONE``;
        falling back to the first completed ticket of any status.  A
        replica killed mid-flight therefore never masks a surviving
        one.
        """
        for sid, t in self.tickets:
            if t.status == DONE:
                return sid, t
        for sid, t in self.tickets:
            if t.done:
                return sid, t
        return self.tickets[0] if self.tickets else None

    @property
    def shard(self) -> Optional[str]:
        serving = self._serving()
        return serving[0] if serving else None

    @property
    def status(self) -> str:
        if self.no_replica:
            return FAILED
        serving = self._serving()
        return serving[1].status if serving else FAILED

    @property
    def latency_units(self) -> int:
        serving = self._serving()
        return serving[1].latency_units if serving else 0

    @property
    def response(self) -> dict:
        if self.no_replica:
            return {"key": self.key, "error": "no alive replica",
                    "shard": None, "fleet_state": "failed"}
        serving = self._serving()
        if serving is None:  # pragma: no cover - defensive
            return {"key": self.key, "error": "not routed"}
        sid, ticket = serving
        doc = dict(ticket.response)
        doc["shard"] = sid
        if self.failover and ticket.status == DONE:
            # Served by a replica because the primary is unhealthy: the
            # answer is the last good partition, reported DEGRADED —
            # same contract as the server's solve-failure degrade path.
            doc["fleet_state"] = DEGRADED
            if "state" in doc:
                doc["state"] = DEGRADED
        else:
            doc["fleet_state"] = "ok" if ticket.status == DONE else "failed"
        return doc


class FleetRouter:
    """Routes fleet requests onto shards and finalizes their tickets.

    ``shards`` is the fleet's ordered ``{shard_id: Shard}`` mapping and
    ``ring`` its current :class:`~repro.fleet.ring.HashRing`; the fleet
    swaps ``ring`` on rebalance.  ``metrics`` (fleet-level registry) and
    ``health`` are optional observability sinks.
    """

    def __init__(self, shards: "Dict[str, Shard]", ring, *,
                 metrics=None, health=None, reqtrace=None) -> None:
        self.shards = shards
        self.ring = ring
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.health = health
        self.reqtrace = reqtrace if reqtrace is not None else NULL_REQTRACE
        self.counters: Dict[str, int] = {
            "routed": 0,
            "failovers": 0,
            "degraded_serves": 0,
            "failover_failed": 0,
            "failed_requests": 0,
            "no_replica": 0,
            "fanouts": 0,
            "fanout_keys": 0,
        }
        self.requests_by_kind: Dict[str, int] = {
            DETECT: 0, QUERY: 0, UPDATE: 0,
        }
        self.routed_by_shard: Dict[str, int] = {}
        self._open: List[FleetTicket] = []
        m = self.metrics
        self._m_requests = m.counter(
            "fleet_requests_total",
            "fleet requests completed, by kind and final status",
            ("kind", "status"))
        self._m_routed = m.counter(
            "fleet_routed_total",
            "requests routed, by serving shard", ("shard",))
        self._m_failovers = m.counter(
            "fleet_failovers_total",
            "requests routed past a dead primary")
        self._m_degraded = m.counter(
            "fleet_degraded_serves_total",
            "requests served DEGRADED by a failover replica")
        self._m_degraded_served = m.counter(
            "fleet_degraded_served_total",
            "failover-path requests finalized, by final status — the "
            "failover-while-error path lands under status=failed instead "
            "of silently vanishing from the degraded accounting",
            ("status",))
        self._m_latency = m.histogram(
            "fleet_request_latency_units",
            "end-to-end fleet request latency (logical units), by kind; "
            "buckets carry trace_id exemplars when request tracing is on",
            ("kind",))
        self._m_fanouts = m.counter(
            "fleet_fanouts_total", "cross-shard query fan-outs")
        self._m_imbalance = m.gauge(
            "fleet_shard_imbalance",
            "max/mean requests routed per shard")

    # -- routing -----------------------------------------------------------

    def clock_units(self) -> int:
        """Fleet logical clock: the sum of the shard clocks."""
        return sum(sh.server.clock for sh in self.shards.values())

    def _alive_placement(self, key: str) -> Tuple[List[str], bool]:
        placement = self.ring.placement(key)
        alive = [sid for sid in placement
                 if sid in self.shards and self.shards[sid].alive]
        failover = bool(alive) and alive[0] != placement[0]
        return alive, failover

    def _track(self, ticket: FleetTicket) -> FleetTicket:
        self._begin_trace(ticket, [sid for sid, _ in ticket.tickets])
        self.counters["routed"] += 1
        self.requests_by_kind[ticket.kind] += 1
        if ticket.no_replica:
            self.counters["no_replica"] += 1
        else:
            serving = ticket.tickets[0][0]
            self.routed_by_shard[serving] = (
                self.routed_by_shard.get(serving, 0) + 1)
            self._m_routed.labels(serving).inc()
        if ticket.failover:
            self.counters["failovers"] += 1
            self._m_failovers.inc()
        if self.metrics.enabled:
            self._m_imbalance.set(self.imbalance())
        self._open.append(ticket)
        return ticket

    def _begin_trace(self, ticket: FleetTicket, routed) -> None:
        """Mint + attach a trace context for one fleet submission.

        Records the admission span on the ``router`` lane (fleet clock)
        and threads the context onto every replica ticket.  A replica
        ticket that *already* carries a different context means the
        shard's admission queue deduplicated this DETECT onto an
        in-flight leader: the follower records a ``dedup_join`` span
        linking to the leader's trace instead.
        """
        if not self.reqtrace.enabled:
            return
        clock = float(self.clock_units())
        ctx = self.reqtrace.begin(ticket.kind, ticket.key, clock)
        ticket.trace = ctx
        ctx.span("admission", "router", clock, clock,
                 kind=ticket.kind, placement=list(ticket.placement),
                 routed=list(routed), failover=ticket.failover,
                 no_replica=ticket.no_replica)
        for sid, shard_ticket in ticket.tickets:
            if shard_ticket.trace is None:
                shard_ticket.trace = ctx
            elif shard_ticket.trace is not ctx:
                now = float(self.clock_units())
                ctx.span("dedup_join", "router", now, now,
                         link=shard_ticket.trace.trace_id, shard=sid,
                         leader_seq=shard_ticket.trace.seq)

    def _submit_to_shard(self, sid: str, make_request) -> Ticket:
        """Submit to one shard, draining the fleet once on overflow.

        A replicated submission must never partially succeed (a retried
        UPDATE would double-apply on the shard that already accepted
        it), so an overflowing shard queue is resolved *inline*: pump
        the whole fleet until idle — which frees every queue — then
        retry once.  The queue's rejection counter still records the
        overflow.
        """
        server = self.shards[sid].server
        try:
            return server.submit(make_request())
        except ServiceOverloadError:
            self.pump()
            return server.submit(make_request())

    def submit_detect(self, graph, config=None) -> FleetTicket:
        """Route a DETECT to every alive shard of its placement."""
        key = partition_key(graph, config)
        alive, failover = self._alive_placement(key)
        ticket = FleetTicket(key=key, kind=DETECT,
                             placement=self.ring.placement(key),
                             failover=failover, no_replica=not alive)
        for sid in alive:
            shard_ticket = self._submit_to_shard(
                sid, lambda: DetectRequest(graph, config))
            ticket.tickets.append((sid, shard_ticket))
        return self._track(ticket)

    def submit_update(self, key: str, batch) -> FleetTicket:
        """Route an UPDATE to every alive shard of its placement."""
        alive, failover = self._alive_placement(key)
        ticket = FleetTicket(key=key, kind=UPDATE,
                             placement=self.ring.placement(key),
                             failover=failover, no_replica=not alive)
        for sid in alive:
            shard_ticket = self._submit_to_shard(
                sid, lambda: UpdateRequest(key, batch))
            ticket.tickets.append((sid, shard_ticket))
        return self._track(ticket)

    def submit_query(self, key: str, query: str = "community_of", *,
                     vertex: Optional[int] = None,
                     community: Optional[int] = None) -> FleetTicket:
        """Route a QUERY to the first alive shard of its placement."""
        alive, failover = self._alive_placement(key)
        ticket = FleetTicket(key=key, kind=QUERY,
                             placement=self.ring.placement(key),
                             failover=failover, no_replica=not alive)
        if alive:
            shard_ticket = self._submit_to_shard(
                alive[0],
                lambda: QueryRequest(key, query, vertex=vertex,
                                     community=community))
            ticket.tickets.append((alive[0], shard_ticket))
        return self._track(ticket)

    # -- the event loop ----------------------------------------------------

    def pump(self) -> int:
        """Step every alive shard (in fleet order) until all are idle.

        Returns the number of shard-level requests processed.  Completed
        fleet tickets are finalized here: counted, reported to metrics
        and fed to the health evaluator on the fleet clock.
        """
        processed = 0
        busy = True
        while busy:
            busy = False
            for sh in self.shards.values():
                if not sh.alive:
                    continue
                while sh.server.step() is not None:
                    processed += 1
                    busy = True
        still_open: List[FleetTicket] = []
        for ticket in self._open:
            if not ticket.done:
                still_open.append(ticket)
                continue
            self._finalize(ticket)
        self._open = still_open
        return processed

    def _finalize(self, ticket: FleetTicket) -> None:
        status = ticket.status
        # DEGRADED is an *answer* annotation: only a DONE failover
        # response carries it (``FleetTicket.response``).  A failover
        # request that still errored is accounted separately so it never
        # silently vanishes from the degraded bookkeeping.
        degraded = ticket.failover and status == DONE
        if status == FAILED:
            self.counters["failed_requests"] += 1
        if degraded:
            self.counters["degraded_serves"] += 1
            self._m_degraded.inc()
        if ticket.failover:
            if status != DONE:
                self.counters["failover_failed"] += 1
            self._m_degraded_served.labels(status).inc()
        ctx = ticket.trace
        fleet_state = ticket.response.get("fleet_state", "")
        if ctx is not None:
            clock = float(self.clock_units())
            ctx.span("reply", "router", clock, clock,
                     status=status, fleet_state=fleet_state,
                     shard=ticket.shard, failover=ticket.failover)
            self.reqtrace.finish(
                ctx, status=status, clock=clock, fleet_state=fleet_state,
                failover=ticket.failover,
                latency_units=float(ticket.latency_units))
        if self.metrics.enabled:
            self._m_requests.labels(ticket.kind, status).inc()
            self._m_latency.labels(ticket.kind).observe(
                float(ticket.latency_units),
                ctx.trace_id if ctx is not None else None)
        if self.health is not None:
            clock = self.clock_units()
            if ticket.kind == QUERY:
                self.health.record_value(
                    "fleet_query_latency_units", clock,
                    float(ticket.latency_units))
            self.health.record_event(
                "fleet_request_errors", clock, status == FAILED)
            self.health.record_value(
                "fleet_shard_imbalance", clock, self.imbalance())
            if self.reqtrace.enabled:
                self.reqtrace.observe_health(
                    self.health.state(clock), float(clock))

    # -- cross-shard fan-out -----------------------------------------------

    def registered_keys(self) -> List[str]:
        """Every key held by an alive shard, sorted (deterministic)."""
        keys = set()
        for sh in self.shards.values():
            if sh.alive:
                keys.update(sh.server.store.keys())
        return sorted(keys)

    def fanout_query(self, query: str = "community_of", *,
                     vertex: Optional[int] = None,
                     community: Optional[int] = None,
                     keys: Optional[List[str]] = None) -> dict:
        """Broadcast one QUERY per key and merge deterministically.

        The merged document groups routing by shard id (sorted) and
        keeps the shard-count-invariant ``answers`` separate from the
        routing metadata, so the same fleet state yields byte-identical
        JSON and the answers match at any shard count.
        """
        targets = sorted(keys) if keys is not None else self.registered_keys()
        tickets = [(key, self.submit_query(key, query, vertex=vertex,
                                           community=community))
                   for key in targets]
        self.pump()
        self.counters["fanouts"] += 1
        self.counters["fanout_keys"] += len(targets)
        self._m_fanouts.inc()
        answers: Dict[str, object] = {}
        states: Dict[str, str] = {}
        served_by: Dict[str, List[str]] = {}
        degraded: List[str] = []
        failed: List[str] = []
        for key, ticket in tickets:
            resp = ticket.response
            if ticket.status != DONE:
                failed.append(key)
                continue
            answers[key] = _jsonify(resp["value"])
            states[key] = resp["state"]
            served_by.setdefault(resp["shard"], []).append(key)
            if ticket.failover:
                degraded.append(key)
        params = {}
        if vertex is not None:
            params["vertex"] = int(vertex)
        if community is not None:
            params["community"] = int(community)
        return {
            "schema": FANOUT_SCHEMA,
            "query": query,
            "params": params,
            "answers": {k: answers[k] for k in sorted(answers)},
            "states": {k: states[k] for k in sorted(states)},
            "shards": {sid: sorted(ks)
                       for sid, ks in sorted(served_by.items())},
            "degraded": sorted(degraded),
            "failed": sorted(failed),
        }

    @staticmethod
    def fanout_invariant_digest(doc: dict) -> str:
        """Digest of a fan-out's shard-count-invariant portion.

        Covers query, params and answers only — never the routing
        metadata — so fleets at different shard counts serving the same
        partitions produce the same digest.
        """
        import hashlib

        payload = json.dumps(
            {"query": doc["query"], "params": doc["params"],
             "answers": doc["answers"]},
            sort_keys=True, separators=(",", ":"))
        return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()

    # -- accounting --------------------------------------------------------

    def imbalance(self) -> float:
        """Max/mean requests routed per shard (1.0 = perfectly even)."""
        if not self.shards:
            return 0.0
        loads = [self.routed_by_shard.get(sid, 0) for sid in self.shards]
        mean = sum(loads) / len(loads)
        if mean == 0:
            return 0.0
        return max(loads) / mean

    def stats(self) -> dict:
        """Deterministic router block of the fleet stats document."""
        return {
            "requests": dict(sorted(self.requests_by_kind.items())),
            "per_shard": dict(sorted(self.routed_by_shard.items())),
            "counters": dict(sorted(self.counters.items())),
        }
