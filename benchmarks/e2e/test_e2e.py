"""Self-test of the wall-clock benchmark: ``pytest benchmarks/e2e``.

The workload functions run here on small graphs, passed as arguments,
with ``seconds=0`` so each makes only its minimum number of timed
operations.
"""

import e2e_trace
import e2e_workloads as wl
import pytest
import run

from repro.graph.builder import GraphBuilder

SPEC = run.load_spec()
SMALL = {
    "solve-web": dict(vertices=4096, warm_vertices=1024),
    "solve-kmer": dict(chains=400, warm_chains=100),
    "solve-web-proc2": dict(vertices=4096, warm_vertices=1024),
    "serve-mixed": dict(graphs=("asia_osm", "kmer_A2a"), queries=300,
                        bursts=4, edges_per_update=16),
}


def small(workload, seed=1, traced=False, **kw):
    rec = e2e_trace.SpanRecorder() if traced else None
    return wl.WORKLOADS[workload](seed, 0, rec=rec, **SMALL[workload], **kw)


@pytest.fixture(scope="module", params=sorted(SMALL))
def traced(request):
    return small(request.param, traced=True)


@pytest.fixture(scope="module")
def untraced():
    return {w: small(w) for w in SMALL}


def test_every_metric_printed_with_unit(untraced, traced):
    for outcome, is_traced, section in (
            *[(o, False, "end_to_end") for o in untraced.values()],
            (traced, True, "per_layer")):
        lines, doc = run.report(outcome, SPEC, is_traced)
        for m in SPEC[section]:
            line = next(x for x in lines if x.startswith(m["name"] + " = "))
            assert line.endswith(" " + m["unit"]), line
            assert doc["metrics"][m["name"]]["unit"] == m["unit"]
        assert doc["correct"] and doc["attempted"] >= 1 and doc["failed"] == 0


def test_end_to_end_metrics_are_never_zero(untraced):
    for outcome in untraced.values():
        assert all(v > 0 for v in outcome.metrics.values()), outcome.metrics


def test_deterministic_metrics_repeat_at_same_seed():
    for workload in ("solve-kmer", "serve-mixed"):
        a, b, c = small(workload, 3), small(workload, 3), small(workload, 4)
        assert a.metrics["modularity"] == b.metrics["modularity"]
        assert a.checks.attempted == b.checks.attempted
        if workload == "serve-mixed":
            assert a.detail["stale_frac"] == b.detail["stale_frac"] > 0
            assert a.detail["counters"] == b.detail["counters"]
            assert a.detail["fingerprints"] == b.detail["fingerprints"]
            assert set(a.detail["fingerprints"].values()).isdisjoint(
                c.detail["fingerprints"].values())
        else:
            assert (a.detail["passes"], a.detail["communities"]) == (
                b.detail["passes"], b.detail["communities"])
            assert a.detail["fingerprint"] == b.detail["fingerprint"]
            assert a.detail["fingerprint"] != c.detail["fingerprint"]


def test_spans_nest_inside_their_parents(traced):
    spans = {s["id"]: s for s in traced.recorder.spans}
    assert spans
    for s in spans.values():
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            p = spans[s["parent"]]
            assert p["start"] <= s["start"] and s["end"] <= p["end"]
            assert p["op"] == s["op"]
    assert min(e2e_trace.self_times(spans.values()).values()) >= 0.0


def test_phases_plus_other_cover_the_leiden_span(traced):
    layers = traced.layers
    parts = (layers["local_move.s"] + layers["refine.s"]
             + layers["aggregate.s"] + layers["leiden.other_s"])
    assert parts == pytest.approx(layers["leiden.s"], rel=0.05)
    assert 0 < layers["leiden.s"]


def test_layer_metrics_split_by_workload(traced):
    layers = traced.layers
    assert layers["leiden.calls"] > 0 and layers["bench.warmup_s"] > 0
    if traced.workload == "solve-web-proc2":
        assert layers["procpool.tasks"] > 0 and layers["shm.bytes"] > 0
        assert 0 < layers["procpool.utilisation"] <= 1.0
    else:
        assert layers["procpool.tasks"] == layers["shm.bytes"] == 0
    serving = traced.workload == "serve-mixed"
    assert (layers["index.calls"] > 0) == serving
    assert (layers["service.refresh.calls"] > 0) == serving


def test_wrappers_are_restored():
    rec = e2e_trace.SpanRecorder()
    before = {(o, a): o.__dict__[a] for layer in e2e_trace._targets(rec).values()
              for o, a, _, _ in layer}
    small("solve-web", traced=True)
    with pytest.raises(RuntimeError):
        with e2e_trace.installed(rec):
            raise RuntimeError("leave the block early")
    assert all(o.__dict__[a] is f for (o, a), f in before.items())


def test_disconnected_partition_counts_as_an_error():
    # Path 0-1-2-3: community 0 = {0, 3} is not connected.
    graph = GraphBuilder().add_edges([(0, 1), (1, 2), (2, 3)]).build()
    checks = wl.Checks()
    checks.record("connected", wl.partition_problems(graph, [0, 0, 1, 1]))
    checks.record("disconnected", wl.partition_problems(graph, [0, 1, 1, 0]))
    checks.record("gap in ids", wl.partition_problems(graph, [0, 0, 2, 2]))
    assert (checks.attempted, checks.failed) == (3, 2)


def test_failed_refresh_counts_as_an_error():
    def fail_refresh(op, attempt):
        if op == "refresh":
            raise RuntimeError("injected refresh failure")

    outcome = small("serve-mixed", fault_hook=fail_refresh)
    assert outcome.checks.failed > 0 and outcome.detail["error_rate"] > 0
    _, doc = run.report(outcome, SPEC, False)
    assert not doc["correct"]


def test_process_engine_matches_batch(untraced):
    proc = untraced["solve-web-proc2"]
    web = untraced["solve-web"]
    assert proc.checks.failed == 0
    assert proc.metrics["modularity"] == web.metrics["modularity"]
    assert proc.checks.attempted > web.checks.attempted  # + batch reference
