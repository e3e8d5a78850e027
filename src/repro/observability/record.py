"""One recorded run: a solve or a served workload, and its documents.

``repro run --record DIR`` and ``repro serve --record DIR`` write the
seven documents of one recorded run, and the golden baselines
(:mod:`repro.observability.regression`) pin the metrics and memory
documents and the served stats of the same runs.  Both go through this
module's three pieces:

- :func:`record_solve` records one detection run;
- :func:`record_workload` records one served workload;
- :class:`Record` projects a record into its documents
  (:meth:`Record.metrics_doc`, :meth:`Record.memory_doc`, and
  :meth:`Record.write` for all seven).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.leiden import leiden
from repro.metrics.modularity import modularity
from repro.observability.memtrack import MemoryView, validate_memory_doc
from repro.observability.metrics import (
    to_prometheus,
    to_snapshot,
    trace_families,
    validate_prometheus,
)
from repro.observability.profile_report import format_profile_report
from repro.observability.profiler import (
    chrome_trace_json,
    timeline,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.observability.recorder import Recorder, record_csr
from repro.observability.tracer import trace_doc, trace_tree
from repro.parallel.costmodel import PAPER_MACHINE
from repro.parallel.runtime import Runtime

__all__ = ["PROFILE_THREADS", "PROFILE_TOP", "Record", "record_solve",
           "record_workload", "solve"]

#: Thread count of the timeline a recorded run lays out (one Chrome lane
#: per thread) and the regions its profile report lists.
PROFILE_THREADS = 8
PROFILE_TOP = 5


def _json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


@dataclass(frozen=True)
class Record:
    """One recorded run and what its documents add to the record.

    ``families`` are the metric families the metrics documents show,
    ``memory`` is the view the memory report reads, ``summary`` is the
    run's outcome, which the metrics meta carries, and ``trace_meta`` is
    what the trace's meta adds.
    """

    recorder: Recorder
    families: dict
    memory: MemoryView
    summary: dict
    trace_meta: dict = field(default_factory=dict)

    def metrics_doc(self, **meta) -> dict:
        """The ``repro.metrics/1`` snapshot, ``meta`` beside the summary."""
        return to_snapshot(self.families, **meta, **self.summary)

    def memory_doc(self, **meta) -> dict:
        """The ``repro.memory/1`` report, validated by event replay."""
        doc = self.memory.to_snapshot(**meta)
        validate_memory_doc(doc)
        return doc

    def write(self, directory: Path, experiment: str, seed: int,
              **memory_meta) -> None:
        """Write the seven documents into ``directory``.

        The trace (``trace.json``), the timeline at
        :data:`PROFILE_THREADS` threads as a Chrome document and a text
        report (``profile.chrome.json``, ``profile.txt``), the metric
        families as a snapshot and as Prometheus text (``metrics.json``,
        ``metrics.prom``) and the memory view as a report and a Chrome
        counter lane (``memory.json``, ``memory.chrome.json``).  Every
        document's meta holds ``experiment`` and ``seed``; the memory
        report adds ``memory_meta``.  Both Chrome documents, the memory
        report and the exposition are validated before any file is
        written.
        """
        meta = {"experiment": experiment, "seed": seed}
        trace = trace_doc(self.recorder, **meta, **self.trace_meta)
        tl = timeline(self.recorder, PROFILE_THREADS)
        chrome = to_chrome_trace(tl, **meta)
        prom = to_prometheus(self.families)
        memory_chrome = self.memory.to_chrome_trace(**meta)
        validate_chrome_trace(chrome)
        validate_chrome_trace(memory_chrome)
        validate_prometheus(prom)
        docs = {
            "trace.json": _json(trace),
            "profile.chrome.json": chrome_trace_json(chrome, indent=1),
            "profile.txt": format_profile_report(
                tl, trace_doc=trace, top=PROFILE_TOP, title=experiment),
            "metrics.json": _json(self.metrics_doc(**meta)),
            "metrics.prom": prom.rstrip("\n"),
            "memory.json": _json(self.memory_doc(**meta, **memory_meta)),
            "memory.chrome.json": chrome_trace_json(memory_chrome, indent=1),
        }
        directory.mkdir(parents=True, exist_ok=True)
        for name, text in docs.items():
            (directory / name).write_text(text + "\n")
        print(f"{len(docs)} documents written to {directory}")


def solve(graph, config, *, algo=leiden, workers: int = 1, recorder=None):
    """One detection run of ``algo``: on ``workers`` worker processes
    when ``config.engine`` is ``"process"``, else on a one-thread
    runtime.  Any worker pool is closed before returning."""
    if config.engine == "process":
        rt = Runtime(num_threads=workers, executor="process",
                     seed=config.seed, recorder=recorder)
    else:
        rt = Runtime(num_threads=1, seed=config.seed, recorder=recorder)
    try:
        return algo(graph, config, runtime=rt)
    finally:
        rt.close()


def record_solve(graph, config, *, algo=leiden, workers: int = 1):
    """Record one :func:`solve`; returns ``(record, result)``.

    The input CSR is charged first: graph loads are memoized, so its
    construction may predate the recorder.  The metrics add the trace's
    observation histograms as ``trace_*`` families, and the trace models
    the run at the paper machine's full width.
    """
    recorder = Recorder()
    record_csr(recorder, graph)
    result = solve(graph, config, algo=algo, workers=workers,
                   recorder=recorder)
    summary = {
        "modularity": modularity(graph, result.membership,
                                 resolution=config.resolution),
        "num_passes": result.num_passes,
        "num_communities": result.num_communities,
        "total_work": result.ledger.total_work,
    }
    threads = PAPER_MACHINE.max_threads
    sim = result.ledger.simulate(PAPER_MACHINE, threads)
    record = Record(
        recorder,
        families={**recorder.families,
                  **trace_families(trace_tree(recorder))},
        memory=MemoryView(recorder),
        summary=summary,
        trace_meta={"num_threads": threads,
                    "machine": PAPER_MACHINE.as_dict(),
                    "metrics": {**summary,
                                "wall_seconds": result.wall_seconds,
                                "modeled_seconds": sim.seconds,
                                "modeled_phase_seconds": sim.phase_seconds}})
    return record, result


def record_workload(profile: str, *, seed: int, service_config=None,
                    verify: bool = True):
    """Record one served workload; returns ``(record, result)``.

    No ``trace_*`` families: the trace's request latencies are wall
    clock.  The memory report is the serving side's: the store's
    entries, not the solves' transient buffers.
    """
    from repro.service.server import PartitionServer
    from repro.service.workload import run_workload

    recorder = Recorder()
    server = PartitionServer(service_config, recorder=recorder)
    result = run_workload(profile, seed=seed, server=server, verify=verify)
    record = Record(recorder, families=recorder.families,
                    memory=MemoryView(recorder, components=("store",)),
                    summary={"clock_units": int(server.clock)})
    return record, result
