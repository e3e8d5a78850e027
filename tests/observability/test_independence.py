"""Every document of a recorded run is the same whether it is produced
alone or beside the other three.

A document must not depend on which other documents were asked for:
once a trace gained ``modeled_region_seconds`` only when a profile was
recorded too, and a profile labelled its regions by span path only when
a trace was.  Traces are compared with their wall-clock fields zeroed.
"""

import pytest

from repro.core.config import LeidenConfig
from repro.core.leiden import leiden
from repro.datasets.registry import load_graph
from repro.observability.memtrack import MemoryView
from repro.observability.metrics import to_snapshot
from repro.observability.profiler import timeline, to_chrome_trace
from repro.observability.recorder import Recorder, record_csr
from repro.observability.tracer import trace_doc
from repro.parallel.runtime import Runtime
from repro.service.server import PartitionServer
from repro.service.workload import run_workload

#: Wall-clock fields of a trace: span seconds and the request latency
#: observation with its percentiles.
WALL = ("seconds", "wall_seconds", "service_request_seconds",
        "service_request_seconds_p50", "service_request_seconds_p99")


def zero_wall(doc):
    if isinstance(doc, dict):
        return {k: 0.0 if k in WALL else zero_wall(v)
                for k, v in doc.items()}
    if isinstance(doc, list):
        return [zero_wall(v) for v in doc]
    return doc


#: Each document of a solve, built from its recorder.
SOLVE_DOCS = {
    "trace": lambda rec: zero_wall(trace_doc(rec)),
    "chrome": lambda rec: to_chrome_trace(timeline(rec, 8)),
    "metrics": lambda rec: to_snapshot(rec.families),
    "memory": lambda rec: MemoryView(rec).to_snapshot(),
}


def _recorded_solve() -> Recorder:
    graph = load_graph("asia_osm")
    rec = Recorder()
    record_csr(rec, graph)
    with Runtime(num_threads=1, seed=42, recorder=rec) as rt:
        leiden(graph, LeidenConfig(seed=42), runtime=rt)
    return rec


class TestSolve:
    @pytest.fixture(scope="class")
    def together(self):
        rec = _recorded_solve()
        return {name: build(rec) for name, build in SOLVE_DOCS.items()}

    @pytest.mark.parametrize("name", sorted(SOLVE_DOCS))
    def test_alone_equals_together(self, together, name):
        assert SOLVE_DOCS[name](_recorded_solve()) == together[name]


#: Each document of a served workload: as ``repro serve --record``
#: writes them, the memory report covers the store alone.
SERVE_DOCS = {
    **SOLVE_DOCS,
    "memory": lambda rec: MemoryView(
        rec, components=("store",)).to_snapshot(),
}


def _recorded_serve() -> Recorder:
    rec = Recorder()
    run_workload("tiny", seed=0, server=PartitionServer(recorder=rec),
                 verify=False)
    return rec


class TestServe:
    @pytest.fixture(scope="class")
    def together(self):
        rec = _recorded_serve()
        return {name: build(rec) for name, build in SERVE_DOCS.items()}

    @pytest.mark.parametrize("name", sorted(SERVE_DOCS))
    def test_alone_equals_together(self, together, name):
        assert SERVE_DOCS[name](_recorded_serve()) == together[name]
