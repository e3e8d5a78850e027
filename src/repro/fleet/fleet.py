"""Fleet lifecycle: spawn, kill, drain, and rebalance partition shards.

A :class:`PartitionFleet` owns N deterministic
:class:`~repro.service.server.PartitionServer` instances ("shards"),
the :class:`~repro.fleet.ring.HashRing` that places partition keys on
them, and the :class:`~repro.fleet.router.FleetRouter` that routes
requests.  Everything runs single-threaded on logical clocks, so a
fleet run is a pure function of (config, request sequence) — double
runs are byte-identical, which the CI fleet smoke asserts.

Lifecycle:

- :meth:`spawn` / :meth:`retire` change the shard set and return the
  explicit minimal :class:`~repro.fleet.ring.MovePlan` the ring change
  implies; the plan is *executed* immediately (entries copied to
  fetching shards, dropped from vacating ones) and also returned so
  tests can assert its moved-key count against the ``K/(N+1)``
  consistent-hashing bound;
- :meth:`kill` marks a shard unhealthy without a ring change — its
  queued tickets fail, and the router fails over reads to the
  surviving replicas (served DEGRADED);
- :meth:`drain` pumps the router until idle, then drains every alive
  shard (running their deferred reconciles).

Observability: each shard gets its own ``MetricsRegistry``;
:meth:`metrics_snapshot` merges them with the fleet-level registry into
one ``repro.metrics/1`` snapshot (counters/histograms sum across
shards), and the fleet ``HealthEvaluator`` tracks fleet SLOs —
hottest-shard query p99, error ratio, and the max/mean imbalance gauge.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Callable, List, Optional

from repro.errors import ServiceError
from repro.fleet.ring import HashRing, MovePlan, plan_moves
from repro.fleet.router import FleetRouter, Shard
from repro.observability.memtrack import MemoryLedger, merge_memory_snapshots
from repro.observability.metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    exact_percentile,
)
from repro.service.requests import DETECT, FAILED, QUERY
from repro.service.server import PartitionServer, ServiceConfig

__all__ = ["FleetConfig", "PartitionFleet", "FLEET_STATS_SCHEMA"]

#: Version tag of the fleet stats document.
FLEET_STATS_SCHEMA = "repro.fleet-stats/1"


@dataclasses.dataclass
class FleetConfig:
    """Tunables of a partition-server fleet."""

    #: Number of shards spawned at construction.
    num_shards: int = 3
    #: Replication factor R (placement width is min(R, num shards)).
    replicas: int = 1
    #: Virtual nodes per shard on the hash ring.
    virtual_nodes: int = 64
    #: Per-shard service configuration (shared by all shards).
    service: ServiceConfig = dataclasses.field(default_factory=ServiceConfig)
    #: Shard ids are ``f"{shard_prefix}-{i}"``.
    shard_prefix: str = "shard"

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ServiceError("num_shards must be >= 1")
        if self.replicas < 1:
            raise ServiceError("replicas must be >= 1")
        if self.virtual_nodes < 1:
            raise ServiceError("virtual_nodes must be >= 1")


class PartitionFleet:
    """N partition servers behind a deterministic consistent-hash router.

    Parameters
    ----------
    config:
        :class:`FleetConfig`; defaults apply when ``None``.
    metrics:
        Fleet-level :class:`MetricsRegistry` for router instruments.
        When enabled, every shard also gets its *own* registry and
        :meth:`metrics_snapshot` merges them all.
    health:
        Fleet :class:`~repro.observability.health.HealthEvaluator`
        (see :func:`~repro.observability.health.default_fleet_slos`);
        fed by the router on the fleet logical clock.
    fault_hook:
        Per-shard solve fault hook factory: ``callable(shard_id) ->
        hook | None``; the hook is passed to that shard's server
        (same contract as :class:`PartitionServer`'s ``fault_hook``).
    reqtrace:
        :class:`~repro.observability.reqtrace.RequestTracer` — the
        router mints one trace per fleet request and every hop
        (admission, shard queue wait, serve, refresh, failover, reply)
        appends spans; ``None`` disables request tracing.
    memory:
        Truthy to track memory: every shard gets its own
        :class:`~repro.observability.memtrack.MemoryLedger` (store
        bytes per shard) and :meth:`memory_snapshot` merges them into
        one ``repro.memory/1`` document with a per-shard breakdown.
    """

    def __init__(
        self,
        config: FleetConfig | None = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        health=None,
        fault_hook: Optional[Callable[[str], Optional[Callable]]] = None,
        reqtrace=None,
        memory: bool = False,
    ) -> None:
        self.config = config or FleetConfig()
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.health = health
        self.reqtrace = reqtrace
        self.track_memory = bool(memory)
        self._fault_hook = fault_hook
        #: Insertion-ordered: iteration order == spawn order, which the
        #: router's pump loop and all reporting rely on (never sorted(),
        #: so "shard-10" after "shard-9" stays stable).
        self.shards: "OrderedDict[str, Shard]" = OrderedDict()
        self._next_shard = 0
        #: Clock units accumulated by shards that have been retired.
        self._retired_clock = 0
        self._kills = 0
        self._rebalances = 0
        ids = [self._new_shard_id() for _ in range(self.config.num_shards)]
        for sid in ids:
            self.shards[sid] = self._make_shard(sid)
        self.ring = HashRing(
            ids,
            virtual_nodes=self.config.virtual_nodes,
            replicas=self.config.replicas,
        )
        self.router = FleetRouter(
            self.shards, self.ring, metrics=self.metrics, health=self.health,
            reqtrace=self.reqtrace)

    # -- shard construction ------------------------------------------------

    def _new_shard_id(self) -> str:
        sid = f"{self.config.shard_prefix}-{self._next_shard}"
        self._next_shard += 1
        return sid

    def _make_shard(self, sid: str) -> Shard:
        shard_metrics = (
            MetricsRegistry() if self.metrics.enabled else NULL_REGISTRY)
        shard_memory = MemoryLedger() if self.track_memory else None
        hook = self._fault_hook(sid) if self._fault_hook else None
        server = PartitionServer(
            self.config.service, metrics=shard_metrics, fault_hook=hook,
            memory=shard_memory)
        # Span lane of this server in merged request traces — one lane
        # per shard (the server's own ``reqtrace`` stays None: under a
        # fleet the router owns the trace lifecycle).
        server.lane = sid
        return Shard(id=sid, server=server, metrics=shard_metrics,
                     memory=shard_memory)

    # -- convenience request API (route + pump) ----------------------------

    def detect(self, graph, config=None):
        ticket = self.router.submit_detect(graph, config)
        self.router.pump()
        return ticket

    def query(self, key: str, query: str = "community_of", *,
              vertex: Optional[int] = None, community: Optional[int] = None):
        ticket = self.router.submit_query(
            key, query, vertex=vertex, community=community)
        self.router.pump()
        return ticket

    def update(self, key: str, batch):
        ticket = self.router.submit_update(key, batch)
        self.router.pump()
        return ticket

    def fanout_query(self, query: str = "community_of", **kwargs) -> dict:
        return self.router.fanout_query(query, **kwargs)

    # -- lifecycle ---------------------------------------------------------

    @property
    def alive_shards(self) -> List[str]:
        return [sid for sid, sh in self.shards.items() if sh.alive]

    def clock_units(self) -> int:
        """Fleet logical clock: sum of all shard clocks, ever."""
        return (self._retired_clock
                + sum(sh.server.clock for sh in self.shards.values()))

    def kill(self, shard_id: str) -> int:
        """Mark ``shard_id`` unhealthy (no ring change); fail its queue.

        Returns the number of queued tickets failed.  Reads for keys
        whose primary this was now fail over to surviving replicas and
        are served DEGRADED; keys with no surviving replica fail.
        """
        shard = self._shard(shard_id)
        shard.alive = False
        self._kills += 1
        failed = 0
        while True:
            ticket = shard.server.queue.pop()
            if ticket is None:
                break
            ticket.status = FAILED
            ticket.response = {"error": f"shard {shard_id} killed"}
            ticket.completed_at = shard.server.clock
            if ticket.kind == DETECT:
                shard.server.queue.finish_detect(ticket.request.store_key())
            failed += 1
        return failed

    def revive(self, shard_id: str) -> None:
        """Bring a killed shard back (its store is as it was)."""
        self._shard(shard_id).alive = True

    def _shard(self, shard_id: str) -> Shard:
        if shard_id not in self.shards:
            raise ServiceError(
                f"unknown shard {shard_id!r}; have {list(self.shards)}")
        return self.shards[shard_id]

    def spawn(self) -> "tuple[str, MovePlan]":
        """Add one shard; rebalance; return ``(shard_id, move plan)``."""
        sid = self._new_shard_id()
        self.shards[sid] = self._make_shard(sid)
        plan = self._rebalance(list(self.shards))
        return sid, plan

    def retire(self, shard_id: str) -> MovePlan:
        """Drain a shard out of the fleet entirely (ring change).

        Its keys move to the surviving shards per the plan; its clock
        is folded into the fleet accumulator so ``clock_units`` never
        goes backwards.
        """
        shard = self._shard(shard_id)
        if len(self.shards) == 1:
            raise ServiceError("cannot retire the last shard")
        remaining = [sid for sid in self.shards if sid != shard_id]
        plan = self._rebalance(remaining, retiring=shard)
        self._retired_clock += shard.server.clock
        del self.shards[shard_id]
        return plan

    def rebalance(self, *, virtual_nodes: Optional[int] = None,
                  replicas: Optional[int] = None) -> MovePlan:
        """Re-ring the current shard set with new ring parameters."""
        if virtual_nodes is not None:
            self.config.virtual_nodes = int(virtual_nodes)
        if replicas is not None:
            self.config.replicas = int(replicas)
        return self._rebalance(list(self.shards))

    def _rebalance(self, shard_ids: List[str],
                   retiring: Optional[Shard] = None) -> MovePlan:
        """Swap the ring and execute the implied minimal move plan.

        For each moved key, every *fetching* shard copies the entry
        from the first current holder (placement order, the retiring
        shard included as a last resort), and every *dropping* shard
        discards its copy.  Only keys whose owner set changed move —
        the consistent-hashing minimality the ring tests assert.
        """
        new_ring = HashRing(
            shard_ids,
            virtual_nodes=self.config.virtual_nodes,
            replicas=self.config.replicas,
        )
        keys = set()
        for sh in self.shards.values():
            keys.update(sh.server.store.keys())
        plan = plan_moves(self.ring, new_ring, sorted(keys))
        for move in plan.moves:
            entry = None
            for holder in (*move.old_placement, *move.new_placement):
                holder_shard = self.shards.get(holder) or (
                    retiring if retiring and retiring.id == holder else None)
                if holder_shard is None:
                    continue
                entry = holder_shard.server.store.peek(move.key)
                if entry is not None:
                    break
            for sid in move.fetch:
                if entry is not None and sid in self.shards:
                    self.shards[sid].server.store.put(
                        dataclasses.replace(
                            entry, pending=list(entry.pending)))
            for sid in move.drop:
                if sid in self.shards:
                    self.shards[sid].server.store.discard(move.key)
        self.ring = new_ring
        self.router.ring = new_ring
        self._rebalances += 1
        return plan

    def drain(self) -> int:
        """Pump until idle, then drain every alive shard (reconciles)."""
        processed = self.router.pump()
        for sh in self.shards.values():
            if sh.alive:
                processed += sh.server.drain()
        self.router.pump()
        return processed

    # -- observability -----------------------------------------------------

    def metrics_snapshot(self, **meta) -> dict:
        """One ``repro.metrics/1`` snapshot for the whole fleet.

        The fleet-level registry (router instruments) and every shard's
        registry merge into a fresh one: counters and histograms sum
        across shards, gauges add (documented on
        :meth:`MetricsRegistry.merge`).  Health, when attached, is
        evaluated on the fleet clock.
        """
        merged = MetricsRegistry()
        merged.merge(self.metrics)
        for sh in self.shards.values():
            if sh.metrics is not None and sh.metrics.enabled:
                merged.merge(sh.metrics)
        health_block = (self.health.evaluate(self.clock_units())
                        if self.health is not None else None)
        return merged.to_snapshot(health=health_block, **meta)

    def memory_snapshot(self, **meta) -> dict:
        """One merged ``repro.memory/1`` document for the whole fleet.

        Logical live/peak bytes sum per component and phase across the
        shards; a ``shards`` section keeps each shard's own logical
        view.  Requires construction with ``memory=True``.
        """
        if not self.track_memory:
            raise ServiceError(
                "fleet was not constructed with memory=True")
        per_shard = {
            sid: sh.memory.to_snapshot()
            for sid, sh in self.shards.items() if sh.memory is not None
        }
        return merge_memory_snapshots(per_shard, **meta)

    def hottest_shard_query_p99(self) -> float:
        """Largest per-shard QUERY latency p99 (logical units)."""
        worst = 0.0
        for sh in self.shards.values():
            lats = sh.server._latencies.get(QUERY, [])
            if lats:
                worst = max(worst, float(exact_percentile(lats, 99.0)))
        return worst

    def stats(self) -> dict:
        """Deterministic fleet stats document (byte-stable JSON).

        Contains only logical-clock and counter state — no wall-clock,
        no memory addresses — so two runs of the same seeded workload
        produce byte-identical serializations.
        """
        per_shard = {}
        for sid, sh in self.shards.items():
            srv = sh.server
            per_shard[sid] = {
                "alive": sh.alive,
                "clock_units": int(srv.clock),
                "requests": dict(sorted(srv._requests_by_kind.items())),
                "queue": srv.queue.stats(),
                "store": srv.store.stats(),
                "counters": dict(sorted(srv.counters.items())),
            }
        doc = {
            "schema": FLEET_STATS_SCHEMA,
            "config": {
                "num_shards": len(self.shards),
                "replicas": self.config.replicas,
                "virtual_nodes": self.config.virtual_nodes,
            },
            "ring": self.ring.describe(),
            "clock_units": int(self.clock_units()),
            "router": self.router.stats(),
            "shards": per_shard,
            "derived": {
                "imbalance": round(self.router.imbalance(), 6),
                "hottest_shard_query_p99": self.hottest_shard_query_p99(),
                "kills": self._kills,
                "rebalances": self._rebalances,
            },
        }
        if self.health is not None:
            doc["health"] = self.health.evaluate(self.clock_units())
        return doc
