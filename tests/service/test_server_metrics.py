"""Tests for server-side metrics instruments."""

from repro.core.config import LeidenConfig
from repro.dynamic.batch import random_batch
from repro.observability.metrics import NULL_REGISTRY, MetricsRegistry
from repro.service.requests import DetectRequest
from repro.service.server import PartitionServer, ServiceConfig
from tests.conftest import ring_of_cliques_graph, two_cliques_graph


def make_server(*, metrics=None, **kwargs) -> PartitionServer:
    cfg = ServiceConfig(leiden=LeidenConfig(seed=1), **kwargs)
    return PartitionServer(cfg, metrics=metrics)


class TestServerInstruments:
    def test_defaults_to_null_registry(self):
        srv = make_server()
        assert srv.metrics is NULL_REGISTRY

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

    def test_latency_count_matches_requests(self):
        reg = MetricsRegistry()
        srv = make_server(metrics=reg)
        ticket = srv.detect(two_cliques_graph())
        srv.query(ticket.response["key"], "community_of", vertex=0)
        doc = reg.to_snapshot()
        # The histogram count matches the number of completed requests.
        lat = doc["families"]["service_latency_units"]["series"]
        assert sum(s["count"] for s in lat) == \
            sum(s["value"] for s in
                doc["families"]["service_requests_total"]["series"])
