"""Seeded closed-loop client generator for the partition server.

A workload drives one :class:`~repro.service.server.PartitionServer`
through the full request lifecycle, deterministically for a given
``(profile, seed)``:

1. **warm-up** — a DETECT per registry graph, plus duplicate DETECTs
   submitted while the originals are still queued (exercising request
   coalescing);
2. **steady state** — a Zipf-skewed query mix (``community_of`` /
   ``members`` / ``neighbor_communities`` / ``membership``) submitted
   closed-loop (one in flight at a time), interrupted by bursts of
   UPDATE requests that are accepted immediately and micro-batched into
   refreshes — queries issued between a burst and its flush are served
   stale;
3. **drain** — flush pending updates and reconcile, then (optionally)
   verify that the membership served for every graph is *identical* to
   a from-scratch :func:`~repro.core.leiden.leiden` run on the final
   graph (initial graph plus every submitted batch, applied in order).

The resulting stats document contains no wall-clock fields, so two runs
with the same profile and seed emit byte-identical JSON — which is what
the committed service baseline gates on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.leiden import leiden
from repro.datasets.registry import load_graph
from repro.dynamic.batch import EdgeBatch, apply_batch, random_batch
from repro.errors import ConfigError, ServiceOverloadError
from repro.service.requests import (
    DetectRequest,
    QueryRequest,
    StatsRequest,
    UpdateRequest,
)
from repro.service.server import PartitionServer, ServiceConfig

__all__ = ["WorkloadProfile", "WorkloadResult", "PROFILES", "run_workload"]

#: Version tag of the workload result document.
WORKLOAD_SCHEMA = "repro.service-workload/1"


@dataclass(frozen=True)
class WorkloadProfile:
    """One named request mix."""

    name: str
    graphs: tuple
    #: Steady-state QUERY requests (total, across graphs).
    num_queries: int
    #: UPDATE bursts injected across the steady state.
    update_bursts: int
    #: UPDATE requests per burst.
    burst_size: int
    #: Insertions (and deletions) per UPDATE batch.
    edges_per_update: int
    #: Duplicate DETECTs submitted behind each original (coalescing).
    duplicate_detects: int
    #: A STATS request every this many queries.
    stats_every: int
    #: Zipf exponent of the query-vertex distribution.
    zipf_exponent: float = 1.3


PROFILES: Dict[str, WorkloadProfile] = {
    p.name: p
    for p in [
        WorkloadProfile("tiny", ("com-Orkut",), 40, 1, 4, 3, 1, 16),
        WorkloadProfile("quick", ("com-Orkut", "asia_osm"),
                        160, 2, 6, 4, 2, 40),
        WorkloadProfile("smoke", ("asia_osm", "uk-2002", "com-Orkut"),
                        400, 3, 8, 6, 2, 80),
    ]
}


@dataclass
class WorkloadResult:
    """Everything one workload run produced."""

    profile: str
    seed: int
    stats: dict
    #: graph name -> bool: served membership == from-scratch solve.
    membership_matches_scratch: Dict[str, bool]
    #: graph name -> store key.
    keys: Dict[str, str]
    #: Submissions rejected by backpressure (resubmitted after drain).
    overloads: int

    def to_json_dict(self) -> dict:
        return {
            "schema": WORKLOAD_SCHEMA,
            "profile": self.profile,
            "seed": self.seed,
            "overloads": self.overloads,
            "membership_matches_scratch": dict(
                sorted(self.membership_matches_scratch.items())),
            "stats": self.stats,
        }


def _zipf_vertex(rng: np.random.Generator, n: int, s: float) -> int:
    """A Zipf-skewed vertex id in ``[0, n)``."""
    return int((int(rng.zipf(s)) - 1) % n)


def run_workload(
    profile: str | WorkloadProfile = "quick",
    *,
    seed: int = 0,
    server: Optional[PartitionServer] = None,
    service_config: Optional[ServiceConfig] = None,
    verify: bool = True,
) -> WorkloadResult:
    """Drive a server through ``profile``; returns the deterministic
    result document.

    ``server`` lets callers supply a preconfigured instance (fault
    hooks, a recorder); otherwise one is built from ``service_config``.
    """
    if isinstance(profile, str):
        try:
            prof = PROFILES[profile]
        except KeyError:
            raise ConfigError(
                f"unknown workload profile {profile!r}; "
                f"known: {sorted(PROFILES)}") from None
    else:
        prof = profile
    srv = server or PartitionServer(service_config)
    rng = np.random.default_rng(seed)
    overloads = 0

    def submit(request):
        """Closed-loop submit: on backpressure, drain then resubmit."""
        nonlocal overloads
        try:
            return srv.submit(request)
        except ServiceOverloadError:
            overloads += 1
            while srv.step() is not None:
                pass
            return srv.submit(request)

    # -- warm-up: DETECT (+ duplicates) per graph ------------------------
    graphs = {name: load_graph(name) for name in prof.graphs}
    detect_tickets = {}
    for name, graph in graphs.items():
        detect_tickets[name] = submit(DetectRequest(graph))
        for _ in range(prof.duplicate_detects):
            submit(DetectRequest(graph))  # coalesces onto the original
    while srv.step() is not None:
        pass
    keys = {name: t.response["key"] for name, t in detect_tickets.items()}

    # -- steady state: Zipf queries + update bursts ----------------------
    names = list(prof.graphs)
    burst_at = {
        (i + 1) * prof.num_queries // (prof.update_bursts + 1)
        for i in range(prof.update_bursts)
    }
    submitted_batches: Dict[str, List[EdgeBatch]] = {n: [] for n in names}
    burst_index = 0
    for i in range(prof.num_queries):
        if i in burst_at:
            # A burst of updates for one graph, submitted back-to-back
            # so the queue-level micro-batching kicks in.
            target = names[burst_index % len(names)]
            for j in range(prof.burst_size):
                batch = random_batch(
                    graphs[target],
                    num_insertions=prof.edges_per_update,
                    num_deletions=prof.edges_per_update,
                    seed=seed + 1000 * (burst_index + 1) + j,
                )
                submitted_batches[target].append(batch)
                submit(UpdateRequest(keys[target], batch))
            burst_index += 1
        name = names[int(rng.integers(0, len(names)))]
        graph = graphs[name]
        kind_draw = float(rng.random())
        vertex = _zipf_vertex(rng, graph.num_vertices, prof.zipf_exponent)
        if kind_draw < 0.70:
            req = QueryRequest(keys[name], "community_of", vertex=vertex)
        elif kind_draw < 0.85:
            # Member listing for the Zipf vertex's own community: the
            # hot-community read pattern.
            entry = srv.store.peek(keys[name])
            community = (entry.index.community_of(vertex)
                         if entry is not None else 0)
            req = QueryRequest(keys[name], "members", community=community)
        elif kind_draw < 0.95:
            req = QueryRequest(keys[name], "neighbor_communities",
                               vertex=vertex)
        else:
            req = QueryRequest(keys[name], "membership")
        submit(req)
        if prof.stats_every and (i + 1) % prof.stats_every == 0:
            submit(StatsRequest())
        while srv.step() is not None:  # closed loop: drain before next
            pass

    # -- drain: flush + reconcile ----------------------------------------
    srv.drain()

    # -- verification: served membership == from-scratch solve ----------
    matches: Dict[str, bool] = {}
    if verify:
        for name in names:
            entry = srv.store.peek(keys[name])
            final_graph = graphs[name]
            for batch in submitted_batches[name]:
                final_graph = apply_batch(final_graph, batch)
            scratch = leiden(final_graph, srv.config.leiden)
            matches[name] = (
                entry is not None
                and entry.graph == final_graph
                and np.array_equal(entry.membership, scratch.membership)
            )

    return WorkloadResult(
        profile=prof.name,
        seed=seed,
        stats=srv.stats(),
        membership_matches_scratch=matches,
        keys=keys,
        overloads=overloads,
    )
