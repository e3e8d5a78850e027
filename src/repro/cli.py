"""Command-line interface: ``repro`` / ``gve-leiden`` / ``python -m repro``.

Subcommands:

- ``repro run <input>`` (also the default when the first argument is not
  a subcommand name, so ``gve-leiden graph.mtx`` keeps working) — detect
  communities in a graph file (MatrixMarket, METIS or edge list) or a
  named registry dataset and print a summary, optionally writing the
  membership vector to a file; ``--record DIR`` records the run and
  writes every observability document into ``DIR``
  (:func:`write_record`; see docs/OBSERVABILITY.md);
- ``repro trace --diff A B`` — compare two saved traces field by field;
- ``repro bench …`` — the evaluation harness
  (:mod:`repro.bench.__main__`), including the ``--check`` perf-
  regression gate used by CI;
- ``repro serve --workload <profile>`` — drive the partition-serving
  subsystem (:mod:`repro.service`) through a seeded closed-loop
  workload and emit its deterministic stats document
  (see docs/SERVICE.md); ``--record DIR`` records the run and writes
  the same documents as ``run --record``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from repro._version import __version__
from repro.core.config import LeidenConfig
from repro.core.leiden import leiden
from repro.core.louvain import louvain
from repro.datasets.registry import load_graph, registry_names
from repro.errors import GraphFormatError
from repro.graph.io_edgelist import read_edgelist
from repro.graph.io_metis import read_metis
from repro.graph.io_mtx import read_mtx
from repro.metrics.connectivity import disconnected_communities
from repro.metrics.modularity import modularity
from repro.metrics.summary import summarize_partition
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
from repro.observability.tracer import TRACE_SCHEMA, trace_doc, trace_tree
from repro.parallel.costmodel import PAPER_MACHINE
from repro.parallel.runtime import Runtime

#: Engine choices of a detection run.
ENGINE_CHOICES = ("batch", "loop", "process")


def positive_int(text: str) -> int:
    """argparse ``type`` for counts that must be at least 1, so a bad
    ``--workers``/``--max-passes`` exits 2 at parse time."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def positive_float(text: str) -> float:
    """argparse ``type`` for a finite float above 0 (``--resolution``);
    ``nan``, ``inf`` and non-positive values exit 2 at parse time."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError("must be a finite number > 0")
    return value


def record_dir(text: str) -> Path:
    """argparse ``type`` for ``--record``: a directory, created when the
    run is done; an existing file exits 2 before anything runs."""
    path = Path(text)
    if path.exists() and not path.is_dir():
        raise argparse.ArgumentTypeError(f"{text} is not a directory")
    return path


def _solve(args, graph, config: LeidenConfig, algo, recorder):
    """One detection run on the engine the flags pick; any worker pool
    is closed before returning."""
    if args.engine == "process":
        rt = Runtime(num_threads=args.workers, executor="process",
                     seed=args.seed, recorder=recorder)
    else:
        rt = Runtime(num_threads=1, seed=args.seed, recorder=recorder)
    try:
        return algo(graph, config, runtime=rt)
    finally:
        rt.close()


def _write_text(path: Path | None, text: str, what: str) -> None:
    """Write ``text`` to ``path`` and say so, or print it when no path."""
    if path is not None:
        path.write_text(text + "\n")
        print(f"{what} written to {path}")
    else:
        print(text)


def _json(doc: dict, compact: bool = False) -> str:
    """Key-sorted JSON, indented unless ``compact``."""
    return json.dumps(doc, sort_keys=True, indent=None if compact else 2)


#: Thread count of the timeline a recorded run lays out (one Chrome lane
#: per thread) and the regions its profile report lists.
PROFILE_THREADS = 8
PROFILE_TOP = 5


def write_record(directory: Path, recorder, experiment: str, seed: int, *,
                 families: dict, memory: MemoryView,
                 trace_meta: dict | None = None,
                 metrics_meta: dict | None = None,
                 memory_meta: dict | None = None) -> None:
    """Write the seven documents of one recorded run into ``directory``.

    Each is a projection of ``recorder``: the trace (``trace.json``),
    the timeline at :data:`PROFILE_THREADS` threads as a Chrome document
    and a text report (``profile.chrome.json``, ``profile.txt``), the
    metric ``families`` as a snapshot and as Prometheus text
    (``metrics.json``, ``metrics.prom``) and the ``memory`` view as a
    report and a Chrome counter lane (``memory.json``,
    ``memory.chrome.json``).  Every document's meta holds ``experiment``
    and ``seed``; ``trace_meta``, ``metrics_meta`` and ``memory_meta``
    add to it.  Both Chrome documents, the memory report and the
    exposition are validated before any file is written.
    """
    meta = {"experiment": experiment, "seed": seed}
    trace = trace_doc(recorder, **meta, **(trace_meta or {}))
    tl = timeline(recorder, PROFILE_THREADS)
    chrome = to_chrome_trace(tl, **meta)
    prom = to_prometheus(families)
    memory_doc = memory.to_snapshot(**meta, **(memory_meta or {}))
    memory_chrome = memory.to_chrome_trace(**meta)
    validate_chrome_trace(chrome)
    validate_chrome_trace(memory_chrome)
    validate_memory_doc(memory_doc)
    validate_prometheus(prom)
    docs = {
        "trace.json": _json(trace),
        "profile.chrome.json": chrome_trace_json(chrome, indent=1),
        "profile.txt": format_profile_report(
            tl, trace_doc=trace, top=PROFILE_TOP, title=experiment),
        "metrics.json": _json(
            to_snapshot(families, **meta, **(metrics_meta or {}))),
        "metrics.prom": prom.rstrip("\n"),
        "memory.json": _json(memory_doc),
        "memory.chrome.json": chrome_trace_json(memory_chrome, indent=1),
    }
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in docs.items():
        (directory / name).write_text(text + "\n")
    print(f"{len(docs)} documents written to {directory}")


def _read_json_docs(paths, validate) -> list | None:
    """Parse JSON-object documents, checking each with ``validate``.

    On the first bad file, prints ``error: <path>: <reason>`` to stderr
    and returns ``None`` (the caller exits 2).
    """
    docs = []
    for path in paths:
        try:
            doc = json.loads(path.read_text())
            if not isinstance(doc, dict):
                raise ValueError(
                    f"expected a JSON object, got {type(doc).__name__}")
            validate(doc)
        except (OSError, ValueError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return None
        docs.append(doc)
    return docs


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gve-leiden",
        description="GVE-Leiden community detection (ICPP 2024 reproduction)",
    )
    p.add_argument("input", nargs="?", default=None,
                   help="graph file (.mtx or edge list) or a registry "
                        "dataset name (see --list)")
    p.add_argument("--list", action="store_true", dest="list_datasets",
                   help="list registry dataset names and exit")
    p.add_argument("--algorithm", choices=["leiden", "louvain"],
                   default="leiden")
    p.add_argument("--refinement", choices=["greedy", "random"],
                   default="greedy")
    p.add_argument("--variant", choices=["default", "medium", "heavy"],
                   default="default")
    p.add_argument("--vertex-label", choices=["move", "refine"],
                   default="move")
    p.add_argument("--engine", choices=list(ENGINE_CHOICES),
                   default="batch")
    p.add_argument("--workers", type=positive_int, default=2,
                   help="worker-process count for --engine process "
                        "(ignored by the other engines; default 2)")
    p.add_argument("--quality", choices=["modularity", "cpm"],
                   default="modularity")
    p.add_argument("--max-passes", type=positive_int, default=10)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--resolution", type=positive_float, default=1.0)
    p.add_argument("--output", type=Path, default=None,
                   help="write one community id per line to this file")
    p.add_argument("--record", type=record_dir, default=None, metavar="DIR",
                   help="record the run and write its trace, profile, "
                        "metrics and memory documents into DIR")
    p.add_argument("--check-connectivity", action="store_true",
                   help="also count internally-disconnected communities")
    p.add_argument("--summary", action="store_true",
                   help="print per-community structure statistics")
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {__version__}")
    return p


def _load(arg: str):
    if arg in registry_names():
        return load_graph(arg)
    path = Path(arg)
    if not path.exists():
        raise SystemExit(f"error: {arg!r} is neither a file nor a dataset "
                         f"name (use --list to see dataset names)")
    if path.suffix == ".mtx":
        reader = read_mtx
    elif path.suffix in (".graph", ".metis"):
        reader = read_metis
    else:
        reader = read_edgelist
    try:
        return reader(path)
    except GraphFormatError as exc:
        raise SystemExit(f"error: {arg}: {exc}") from None


def build_trace_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro trace",
        description="Compare two saved trace JSON files field by field "
                    "(counters and derived metrics gate, span seconds "
                    "are informational); record a trace with "
                    "'repro run <input> --record DIR'",
    )
    p.add_argument("--diff", nargs=2, type=Path, metavar=("A", "B"),
                   required=True, help="the two trace JSON files")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when any deterministic field differs")
    p.add_argument("--output", type=Path, default=None,
                   help="write the diff here instead of stdout")
    return p


def trace_main(argv: list[str] | None = None) -> int:
    """``repro trace --diff A.json B.json`` — field-level trace delta."""
    from repro.observability.regression import (
        diff_trace_docs,
        format_trace_diff,
    )

    def check_schema(doc: dict) -> None:
        if doc.get("schema") != TRACE_SCHEMA:
            raise ValueError(
                f"unsupported trace schema {doc.get('schema')!r} "
                f"(expected {TRACE_SCHEMA!r})")

    args = build_trace_parser().parse_args(argv)
    path_a, path_b = args.diff
    for p in (path_a, path_b):
        if not p.exists():
            raise SystemExit(f"error: trace file {p} does not exist")
    docs = _read_json_docs(args.diff, check_schema)
    if docs is None:
        return 2
    rows = diff_trace_docs(*docs)
    text, diffs = format_trace_diff(
        rows, label_a=str(path_a), label_b=str(path_b))
    _write_text(args.output, text, "diff")
    return 1 if (args.strict and diffs) else 0


def build_serve_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro serve",
        description="Run a seeded closed-loop workload against the "
                    "partition server and emit the deterministic stats "
                    "JSON (no wall-clock fields: two runs with the same "
                    "profile and seed are byte-identical)",
    )
    p.add_argument("--workload", default="quick",
                   help="workload profile name (see PROFILES; unknown "
                        "names exit 2 with the valid list)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-coalesce", action="store_true",
                   help="disable UPDATE micro-batching (one solve per "
                        "update batch; for A/B comparison)")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the served-vs-from-scratch membership check")
    p.add_argument("--output", type=Path, default=None,
                   help="write the result JSON here instead of stdout")
    p.add_argument("--record", type=record_dir, default=None, metavar="DIR",
                   help="record the run and write its trace, profile, "
                        "metrics and memory documents into DIR (the "
                        "memory report covers the store alone)")
    p.add_argument("--compact", action="store_true",
                   help="single-line stats JSON (default: indented)")
    return p


def serve_main(argv: list[str] | None = None) -> int:
    """``repro serve`` — drive the partition server through a workload."""
    from repro.service.server import PartitionServer, ServiceConfig
    from repro.service.workload import PROFILES, run_workload

    args = build_serve_parser().parse_args(argv)
    if args.workload not in PROFILES:
        # Same shape as the bench ``--check`` MISSING output: one line
        # per valid name, then a final ``error:`` summary on stderr.
        for valid in sorted(PROFILES):
            print(f"VALID workload profile {valid}", file=sys.stderr)
        print(f"error: unknown workload profile {args.workload!r} — pick "
              f"one of the profiles listed above", file=sys.stderr)
        return 2
    service_config = ServiceConfig(coalesce_updates=not args.no_coalesce)
    server = recorder = None
    if args.record is not None:
        recorder = Recorder()
        server = PartitionServer(service_config, recorder=recorder)
    result = run_workload(
        args.workload,
        seed=args.seed,
        server=server,
        service_config=service_config,
        verify=not args.no_verify,
    )
    _write_text(args.output, _json(result.to_json_dict(), args.compact),
                "stats")
    if recorder is not None:
        # No trace_* families: the trace's request latencies are wall
        # clock.  The memory report is the serving side's: the store's
        # entries, not the solves' transient buffers.
        write_record(args.record, recorder, f"serve:{args.workload}",
                     args.seed, families=recorder.families,
                     memory=MemoryView(recorder, components=("store",)),
                     metrics_meta={"clock_units": int(server.clock)})
    if not args.no_verify and not all(
            result.membership_matches_scratch.values()):
        print("error: served membership diverged from from-scratch solve",
              file=sys.stderr)
        return 1
    return 0


def bench_main(argv: list[str] | None = None) -> int:
    """``repro bench`` — the evaluation harness (:mod:`repro.bench`)."""
    from repro.bench.__main__ import main as main_

    return main_(argv)


#: First-token subcommands understood by :func:`main`; anything else
#: (including ``run``) is the detection run.
_SUBCOMMANDS = {"trace": trace_main, "bench": bench_main,
                "serve": serve_main}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[argv[0]](argv[1:])
    if argv and argv[0] == "run":
        argv = argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_datasets:
        for name in registry_names():
            print(name)
        return 0
    if args.input is None:
        parser.error("the following arguments are required: input")

    graph = _load(args.input)
    config = LeidenConfig.variant(
        args.variant,
        refinement=args.refinement,
        vertex_label=args.vertex_label,
        quality=args.quality,
        engine=args.engine,
        resolution=args.resolution,
        max_passes=args.max_passes,
        seed=args.seed,
    )
    recorder = None
    if args.record is not None:
        recorder = Recorder()
        # Graph loads are memoized, so the input CSR may predate the
        # recorder; charge it explicitly so the memory report covers it.
        record_csr(recorder, graph)
    result = _solve(args, graph, config,
                    leiden if args.algorithm == "leiden" else louvain,
                    recorder)

    q = modularity(graph, result.membership, resolution=args.resolution)
    print(f"graph: {args.input}")
    print(f"vertices: {graph.num_vertices}  edges: {graph.num_edges}")
    print(f"algorithm: {args.algorithm} ({args.refinement}, {args.variant})")
    print(f"passes: {result.num_passes}  communities: {result.num_communities}")
    print(f"modularity: {q:.6f}")
    print(f"wall time: {result.wall_seconds:.3f}s")
    if args.check_connectivity:
        report = disconnected_communities(graph, result.membership)
        print(f"disconnected communities: {report.num_disconnected} "
              f"({report.fraction:.2e})")
    if args.summary:
        summary = summarize_partition(graph, result.membership)
        pct = summary.size_percentiles()
        print(f"coverage: {summary.coverage:.4f}")
        print("community sizes (min/25%/median/75%/max): "
              + "/".join(f"{pct[q]:.0f}" for q in (0, 25, 50, 75, 100)))
        worst = summary.worst_conductance(3)
        for c in worst:
            print(f"  weakest community {c.community_id}: size {c.size}, "
                  f"conductance {c.conductance:.3f}")
    if args.output is not None:
        _write_text(args.output,
                    "\n".join(str(int(c)) for c in result.membership),
                    "membership")
    if recorder is not None:
        _record_run(args, recorder, result, q)
    return 0


def _record_run(args, recorder, result, q: float) -> None:
    """``run --record``: the run's documents, with the run's summary in
    the trace and metrics meta.  The trace models the run at the paper
    machine's full width; the metrics add the trace's observation
    histograms as ``trace_*`` families."""
    threads = PAPER_MACHINE.max_threads
    sim = result.ledger.simulate(PAPER_MACHINE, threads)
    summary = {"modularity": q, "num_passes": result.num_passes,
               "num_communities": result.num_communities,
               "total_work": result.ledger.total_work}
    write_record(
        args.record, recorder, str(args.input), args.seed,
        families={**recorder.families,
                  **trace_families(trace_tree(recorder))},
        memory=MemoryView(recorder),
        trace_meta={"num_threads": threads,
                    "machine": PAPER_MACHINE.as_dict(),
                    "metrics": {**summary,
                                "wall_seconds": result.wall_seconds,
                                "modeled_seconds": sim.seconds,
                                "modeled_phase_seconds": sim.phase_seconds}},
        metrics_meta=summary,
        memory_meta={"engine": args.engine})


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
