"""Tests for server-side metrics instruments and SLO health wiring."""

from repro.core.config import LeidenConfig
from repro.dynamic.batch import random_batch
from repro.observability.health import (
    HealthEvaluator,
    SLObjective,
    default_service_slos,
)
from repro.observability.metrics import NULL_REGISTRY, MetricsRegistry
from repro.service.requests import DetectRequest
from repro.service.server import PartitionServer, ServiceConfig
from tests.conftest import ring_of_cliques_graph, two_cliques_graph


def make_server(*, metrics=None, health=None, **kwargs) -> PartitionServer:
    cfg = ServiceConfig(leiden=LeidenConfig(seed=1), **kwargs)
    return PartitionServer(cfg, metrics=metrics, health=health)


class TestServerInstruments:
    def test_defaults_to_null_registry(self):
        srv = make_server()
        assert srv.metrics is NULL_REGISTRY
        assert srv.health is None

    def test_request_counters_by_kind_and_status(self):
        reg = MetricsRegistry()
        srv = make_server(metrics=reg)
        ticket = srv.detect(two_cliques_graph())
        srv.query(ticket.response["key"], "community_of", vertex=0)
        srv.query("no-such-key", "community_of", vertex=0)
        req = reg.get("service_requests_total")
        assert req.value("detect", "done") == 1.0
        assert req.value("query", "done") == 1.0
        assert req.value("query", "not_found") == 1.0

    def test_latency_histogram_per_kind(self):
        reg = MetricsRegistry()
        srv = make_server(metrics=reg)
        ticket = srv.detect(two_cliques_graph())
        srv.query(ticket.response["key"], "community_of", vertex=0)
        lat = reg.get("service_latency_units")
        assert lat._data[("detect",)].count == 1
        assert lat._data[("query",)].count == 1
        # Latency is measured on the logical clock: a detect (full
        # solve) costs more units than a store lookup query.
        assert lat._data[("detect",)].min > lat._data[("query",)].max

    def test_store_lookup_and_bytes_instruments(self):
        reg = MetricsRegistry()
        srv = make_server(metrics=reg)
        ticket = srv.detect(two_cliques_graph())
        srv.query(ticket.response["key"], "community_of", vertex=0)
        lookups = reg.get("service_store_lookups_total")
        assert lookups.value("hit") >= 1.0
        assert reg.get("mem_store_bytes").value() > 0.0

    def test_detect_dedup_counter(self):
        reg = MetricsRegistry()
        srv = make_server(metrics=reg)
        g = two_cliques_graph()
        srv.submit(DetectRequest(g))
        srv.submit(DetectRequest(g))  # coalesces onto the queued original
        while srv.step() is not None:
            pass
        assert reg.get("service_detect_dedups_total").value() == 1.0

    def test_queue_depth_gauge_tracks_backlog(self):
        reg = MetricsRegistry()
        srv = make_server(metrics=reg)
        g = two_cliques_graph()
        srv.submit(DetectRequest(g))
        depth = reg.get("service_queue_depth")
        assert depth.value() == 1.0
        while srv.step() is not None:
            pass
        assert depth.value() == 0.0

    def test_refresh_mode_counters(self):
        reg = MetricsRegistry()
        srv = make_server(metrics=reg)
        g = ring_of_cliques_graph()
        ticket = srv.detect(g)
        key = ticket.response["key"]
        batch = random_batch(g, num_insertions=2, num_deletions=2, seed=3)
        srv.update(key, batch)
        srv.drain()
        refreshes = reg.get("service_refreshes_total")
        modes = {k[0] for k in refreshes._values if refreshes._values[k]}
        assert modes  # at least one of full/incremental/reconcile fired

    def test_solve_kernels_counted(self):
        reg = MetricsRegistry()
        srv = make_server(metrics=reg)
        srv.detect(two_cliques_graph())
        passes = reg.get("leiden_passes_total")
        assert passes is not None and passes.value() >= 1.0
        dispatch = reg.get("kernel_dispatch_total")
        assert dispatch is not None
        assert sum(dispatch._values.values()) > 0


class TestServerHealth:
    def test_stats_health_block_only_when_attached(self):
        srv = make_server()
        assert "health" not in srv.stats_snapshot()
        health = HealthEvaluator(default_service_slos())
        srv2 = make_server(health=health)
        doc = srv2.stats_snapshot()
        assert doc["health"]["schema"] == "repro.health/1"
        assert doc["health"]["state"] == "OK"

    def test_latency_and_error_signals_recorded(self):
        health = HealthEvaluator(default_service_slos())
        srv = make_server(health=health)
        ticket = srv.detect(two_cliques_graph())
        srv.query(ticket.response["key"], "community_of", vertex=0)
        assert len(health._samples["query_latency_units"]) == 1
        assert len(health._samples["request_errors"]) == 2
        # All requests succeeded: zero burn on the error budget.
        doc = health.evaluate(srv.clock)
        err = next(o for o in doc["objectives"] if o["name"] == "error_ratio")
        assert err["long"]["bad"] == 0

    def test_stale_serve_recorded_as_bad_event(self):
        health = HealthEvaluator(default_service_slos())
        srv = make_server(health=health)
        g = ring_of_cliques_graph()
        ticket = srv.detect(g)
        key = ticket.response["key"]
        # An accepted-but-unflushed update turns the entry stale; the
        # next query serves stale and must record a bad staleness event.
        srv.update(key, random_batch(g, num_insertions=2, num_deletions=2,
                                     seed=5))
        srv.query(key, "community_of", vertex=0)
        stale = [v for _, v in health._samples["stale_serves"]]
        assert 1.0 in stale

    def test_ok_warn_page_under_injected_slowdown(self):
        # One tight latency objective on QUERY requests; slowdown is
        # injected by stretching the logical query cost, the same lever
        # the PR 1 perf-gate test uses for wall-time regressions.
        slo = SLObjective(name="q_lat", signal="query_latency_units",
                          kind="latency", target=4.0, budget=0.1,
                          long_window=4000, short_window=400,
                          warn_burn=1.0, page_burn=5.0)

        def run_queries(srv, key, n):
            for _ in range(n):
                srv.query(key, "community_of", vertex=0)

        # Healthy server: query cost under target -> OK.
        health = HealthEvaluator([slo])
        srv = make_server(health=health, query_cost_units=2)
        key = srv.detect(two_cliques_graph()).response["key"]
        run_queries(srv, key, 40)
        assert health.state(srv.clock) == "OK"

        # Degraded server: every query now costs 8 units (> target 4),
        # burn = 1/0.1 = 10 in both windows -> PAGE.
        health = HealthEvaluator([slo])
        srv = make_server(health=health, query_cost_units=8)
        key = srv.detect(two_cliques_graph()).response["key"]
        run_queries(srv, key, 40)
        assert health.state(srv.clock) == "PAGE"

        # Mildly degraded: alternate good and bad query costs by
        # stretching every other query -> ~50% bad -> burn 5 on a 0.1
        # budget trips WARN... and with page_burn=5 this sits exactly at
        # the PAGE edge, so use a 30% mix for an unambiguous WARN.
        from dataclasses import replace

        health = HealthEvaluator([slo])
        srv = make_server(health=health, query_cost_units=2)
        key = srv.detect(two_cliques_graph()).response["key"]
        slow = replace(srv.config, query_cost_units=8)
        fast = srv.config
        for i in range(40):
            srv.config = slow if i % 3 == 0 else fast
            srv.query(key, "community_of", vertex=0)
        assert health.state(srv.clock) == "WARN"

    def test_metrics_and_health_snapshot_consistent(self):
        reg = MetricsRegistry()
        health = HealthEvaluator(default_service_slos())
        srv = make_server(metrics=reg, health=health)
        ticket = srv.detect(two_cliques_graph())
        srv.query(ticket.response["key"], "community_of", vertex=0)
        doc = reg.to_snapshot(health=health.evaluate(srv.clock))
        assert doc["health"]["state"] == "OK"
        # The histogram count matches the number of completed requests.
        lat = doc["families"]["service_latency_units"]["series"]
        assert sum(s["count"] for s in lat) == \
            sum(s["value"] for s in
                doc["families"]["service_requests_total"]["series"])
