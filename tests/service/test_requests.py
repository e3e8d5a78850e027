"""Tests for typed requests, the admission queue and UPDATE coalescing."""

import numpy as np
import pytest

from repro.dynamic.batch import EdgeBatch, apply_batch, random_batch
from repro.errors import ServiceOverloadError
from repro.service.requests import (
    AdmissionQueue,
    DetectRequest,
    QueryRequest,
    StatsRequest,
    UpdateRequest,
    coalesce_update_batches,
)
from tests.conftest import two_cliques_graph


class TestRequests:
    def test_query_kind_validated(self):
        with pytest.raises(ValueError):
            QueryRequest("key", "bogus")

    def test_detect_store_key_is_content_keyed(self):
        a = DetectRequest(two_cliques_graph())
        b = DetectRequest(two_cliques_graph())
        assert a.store_key() == b.store_key()

    def test_kinds(self):
        assert DetectRequest(two_cliques_graph()).kind == "detect"
        assert QueryRequest("k").kind == "query"
        assert UpdateRequest("k").kind == "update"
        assert StatsRequest().kind == "stats"


class TestAdmissionQueue:
    def test_fifo(self):
        q = AdmissionQueue()
        t1 = q.submit(QueryRequest("a"))
        t2 = q.submit(QueryRequest("b"))
        assert q.pop() is t1
        assert q.pop() is t2
        assert q.pop() is None

    def test_backpressure(self):
        q = AdmissionQueue(capacity=2)
        q.submit(QueryRequest("a"))
        q.submit(QueryRequest("b"))
        with pytest.raises(ServiceOverloadError):
            q.submit(QueryRequest("c"))
        assert q.rejected == 1
        q.pop()
        q.submit(QueryRequest("c"))  # room again after a pop

    def test_rejections_counted_in_metrics(self):
        # Filling a bounded queue must surface on the
        # queue_rejected_total counter, not just the raised error.
        from repro.observability.recorder import Recorder

        registry = Recorder()
        q = AdmissionQueue(capacity=3, recorder=registry)
        for name in "abc":
            q.submit(QueryRequest(name))
        for name in "xyz":
            with pytest.raises(ServiceOverloadError):
                q.submit(QueryRequest(name))
        assert registry.families["queue_rejected_total"].series[()] == 3.0
        assert q.rejected == 3

    def test_rejected_counter_registered_eagerly(self):
        # The family must exist (at zero) before any overflow, so
        # scrapes and the exact-match metrics baselines see it.
        from repro.observability.recorder import Recorder

        registry = Recorder()
        AdmissionQueue(capacity=2, recorder=registry)
        assert registry.families["queue_rejected_total"].series[()] == 0.0

    def test_server_wires_queue_rejections_to_its_registry(self):
        from repro.observability.recorder import Recorder
        from repro.service.server import PartitionServer, ServiceConfig

        registry = Recorder()
        srv = PartitionServer(ServiceConfig(queue_capacity=1),
                              recorder=registry)
        srv.submit(QueryRequest("a"))
        with pytest.raises(ServiceOverloadError):
            srv.submit(QueryRequest("b"))
        assert registry.families["queue_rejected_total"].series[()] == 1.0

    def test_detect_dedup(self):
        q = AdmissionQueue()
        g = two_cliques_graph()
        t1 = q.submit(DetectRequest(g))
        t2 = q.submit(DetectRequest(two_cliques_graph()))  # same content
        assert t2 is t1
        assert t1.coalesced == 1
        assert q.coalesced_detects == 1
        assert len(q) == 1

    def test_detect_dedup_released_by_finish(self):
        q = AdmissionQueue()
        g = two_cliques_graph()
        t1 = q.submit(DetectRequest(g))
        q.pop()
        t1.status = "done"
        q.finish_detect(DetectRequest(g).store_key())
        t2 = q.submit(DetectRequest(g))
        assert t2 is not t1

    def test_pop_matching_updates(self):
        q = AdmissionQueue()
        ua1 = q.submit(UpdateRequest("a"))
        qb = q.submit(QueryRequest("b"))
        ua2 = q.submit(UpdateRequest("a"))
        ub = q.submit(UpdateRequest("b"))
        matched = q.pop_matching_updates("a")
        assert matched == [ua1, ua2]
        assert q.pop() is qb
        assert q.pop() is ub

    def test_stats(self):
        q = AdmissionQueue(capacity=4)
        q.submit(QueryRequest("a"))
        q.submit(QueryRequest("b"))
        q.pop()
        s = q.stats()
        assert s["submitted"] == 2
        assert s["depth"] == 1
        assert s["max_depth"] == 2
        assert s["capacity"] == 4


def sequential(graph, batches):
    for b in batches:
        graph = apply_batch(graph, b)
    return graph


class TestCoalesceUpdateBatches:
    def test_single_batch_passthrough(self):
        b = EdgeBatch.from_edges([(0, 1)])
        assert coalesce_update_batches([b]) is b

    def test_empty_input(self):
        merged = coalesce_update_batches([])
        assert merged.num_insertions == 0
        assert merged.num_deletions == 0

    def test_insert_then_delete_cancels(self, two_cliques):
        """An insertion wiped by a later batch's deletion must not
        resurface in the one-shot application."""
        batches = [
            EdgeBatch.from_edges([(0, 7)]),
            EdgeBatch.from_edges(deletions=[(0, 7)]),
        ]
        merged = coalesce_update_batches(batches)
        assert (apply_batch(two_cliques, merged)
                == sequential(two_cliques, batches))

    def test_delete_then_insert_survives(self, two_cliques):
        batches = [
            EdgeBatch.from_edges(deletions=[(0, 5)]),
            EdgeBatch.from_edges([(0, 5)], insert_weights=[2.0]),
        ]
        merged = coalesce_update_batches(batches)
        assert (apply_batch(two_cliques, merged)
                == sequential(two_cliques, batches))

    def test_same_batch_insert_and_delete(self, two_cliques):
        """Within one batch deletions go first, so its own insertion of
        the same pair survives — the merge must keep it."""
        batches = [
            EdgeBatch.from_edges([(0, 5)], deletions=[(0, 5)],
                                 insert_weights=[3.0]),
            EdgeBatch.from_edges([(1, 6)]),
        ]
        merged = coalesce_update_batches(batches)
        assert (apply_batch(two_cliques, merged)
                == sequential(two_cliques, batches))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_sequential_equivalence_random(self, seed):
        """One-shot application of the merged batch is bitwise equal to
        applying the batches in order (the micro-batching invariant)."""
        graph = two_cliques_graph(6)
        batches = [
            random_batch(graph, num_insertions=4, num_deletions=3,
                         seed=seed * 10 + i)
            for i in range(4)
        ]
        merged = coalesce_update_batches(batches)
        one_shot = apply_batch(graph, merged)
        step_wise = sequential(graph, batches)
        assert one_shot == step_wise
        assert np.array_equal(one_shot.offsets, step_wise.offsets)
        assert np.array_equal(one_shot.targets, step_wise.targets)
        assert np.array_equal(one_shot.weights, step_wise.weights)
