"""Command-line interface: ``repro`` / ``gve-leiden`` / ``python -m repro``.

Subcommands:

- ``repro run <input>`` (also the default when the first argument is not
  a subcommand name, so ``gve-leiden graph.mtx`` keeps working) — detect
  communities in a graph file (MatrixMarket, METIS or edge list) or a
  named registry dataset and print a summary, optionally writing the
  membership vector to a file;
- ``repro trace <input>`` — run GVE-Leiden with a recorder and emit the
  span/counter trace as JSON
  (see docs/OBSERVABILITY.md for the schema); ``repro trace --diff A B``
  compares two saved traces field by field;
- ``repro profile <input>`` — run once with a recorder and lay out its
  thread timeline; print the critical-path/imbalance report and optionally write
  a Chrome trace-event JSON (``--chrome out.json``, loadable in
  chrome://tracing or Perfetto);
- ``repro metrics <input>`` — run GVE-Leiden with a recorder and emit its
  byte-deterministic metric families as JSON
  (``repro.metrics/1``) or Prometheus text exposition (``--format
  prom``);
- ``repro bench …`` — the evaluation harness
  (:mod:`repro.bench.__main__`), including the ``--check`` perf-
  regression gate and ``--trace`` artifact writer used by CI;
- ``repro serve --workload <profile>`` — drive the partition-serving
  subsystem (:mod:`repro.service`) through a seeded closed-loop
  workload and emit its deterministic stats document
  (see docs/SERVICE.md); ``--trace``, ``--profile``, ``--metrics`` and
  ``--mem`` attach one recorder and write each document from it;
- ``repro mem <input>`` — run GVE-Leiden with a recorder and emit the
  byte-deterministic ``repro.memory/1`` allocation report
  (:mod:`repro.observability.memtrack`); ``--chrome``
  writes the memory counter lanes as Chrome trace JSON, ``--rss``
  prints the informational logical-vs-real ratio.  ``repro serve
  --mem`` writes the serving-side report.
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

#: Engine choices shared by every subcommand that runs a detection.
ENGINE_CHOICES = ("batch", "loop", "process")

#: Help text of the positional graph argument.
_INPUT_HELP = ("graph file (.mtx, .graph or edge list) or a registry "
               "dataset name")


def positive_int(text: str) -> int:
    """argparse ``type`` for counts that must be at least 1, so a bad
    ``--workers``/``--threads``/``--max-passes`` exits 2 at parse time."""
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


def _add_solve_args(p: argparse.ArgumentParser) -> None:
    """The detection flags every solving subcommand shares."""
    p.add_argument("--engine", choices=list(ENGINE_CHOICES),
                   default="batch")
    p.add_argument("--workers", type=positive_int, default=2,
                   help="worker-process count for --engine process "
                        "(ignored by the other engines; default 2)")
    p.add_argument("--quality", choices=["modularity", "cpm"],
                   default="modularity")
    p.add_argument("--max-passes", type=positive_int, default=10)
    p.add_argument("--seed", type=int, default=42)


def _solve(args, graph, config: LeidenConfig | None = None, *,
           algo=leiden, recorder=None):
    """One detection run sized by the solve flags.

    ``config`` defaults to the flags' :class:`LeidenConfig`; ``recorder``
    attaches to the runtime, which — with any worker pool — is closed
    before returning.
    """
    if config is None:
        config = LeidenConfig(engine=args.engine, quality=args.quality,
                              max_passes=args.max_passes, seed=args.seed)
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


def _write_json(path: Path | None, doc: dict, what: str,
                compact: bool) -> None:
    """Key-sorted JSON, indented unless ``--compact``."""
    _write_text(path, json.dumps(doc, sort_keys=True,
                                 indent=None if compact else 2), what)


def _write_chrome(path: Path, doc: dict, what: str, compact: bool) -> None:
    """Validate a Chrome trace-event document, then write it."""
    validate_chrome_trace(doc)
    _write_text(path, chrome_trace_json(doc, indent=None if compact else 1),
                what)


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
    _add_solve_args(p)
    p.add_argument("--resolution", type=positive_float, default=1.0)
    p.add_argument("--output", type=Path, default=None,
                   help="write one community id per line to this file")
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
        description="Run GVE-Leiden with a recorder; emit its trace JSON "
                    "(spans: run → pass → phase; counters: atomics, "
                    "barriers, pruning rate, clock skew, batch sizes)",
    )
    p.add_argument("input", nargs="?", default=None, help=_INPUT_HELP)
    _add_solve_args(p)
    p.add_argument("--threads", type=positive_int, default=64,
                   help="thread count for the modelled-runtime summary")
    p.add_argument("--output", type=Path, default=None,
                   help="write the trace JSON here instead of stdout")
    p.add_argument("--compact", action="store_true",
                   help="single-line JSON (default: indented)")
    p.add_argument("--diff", nargs=2, type=Path, metavar=("A", "B"),
                   default=None,
                   help="compare two saved trace JSON files instead of "
                        "running (counters and derived metrics gate, "
                        "span seconds are informational)")
    p.add_argument("--strict", action="store_true",
                   help="with --diff: exit 1 when any deterministic "
                        "field differs")
    return p


def trace_main(argv: list[str] | None = None) -> int:
    """``repro trace`` — run once with a recorder, emit the JSON trace."""
    parser = build_trace_parser()
    args = parser.parse_args(argv)
    if args.diff is not None:
        return _trace_diff(args)
    if args.input is None:
        parser.error("the following arguments are required: input")
    graph = _load(args.input)
    recorder = Recorder()
    result = _solve(args, graph, recorder=recorder)
    sim = result.ledger.simulate(PAPER_MACHINE, args.threads)
    q = modularity(graph, result.membership)
    doc = trace_doc(
        recorder,
        experiment=str(args.input),
        seed=args.seed,
        num_threads=args.threads,
        machine=PAPER_MACHINE.as_dict(),
        metrics={
            "wall_seconds": result.wall_seconds,
            "modeled_seconds": sim.seconds,
            "modeled_phase_seconds": sim.phase_seconds,
            "total_work": result.ledger.total_work,
            "modularity": q,
            "num_passes": result.num_passes,
            "num_communities": result.num_communities,
        },
    )
    _write_json(args.output, doc, "trace", args.compact)
    return 0


def _trace_diff(args) -> int:
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


def build_profile_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro profile",
        description="Run GVE-Leiden with a recorder; print the "
                    "critical-path / barrier-wait / load-imbalance report "
                    "of its thread timeline, optionally exporting the "
                    "timeline as Chrome trace-event JSON",
    )
    p.add_argument("input", help=_INPUT_HELP)
    _add_solve_args(p)
    p.add_argument("--threads", type=positive_int, default=8,
                   help="simulated thread count the timeline is laid "
                        "out at (one Chrome lane per thread)")
    p.add_argument("--top", type=int, default=5,
                   help="regions listed in the top-N table")
    p.add_argument("--chrome", type=Path, default=None,
                   help="write the Chrome trace-event JSON here "
                        "(open in chrome://tracing or Perfetto)")
    p.add_argument("--output", type=Path, default=None,
                   help="write the text report here instead of stdout")
    p.add_argument("--compact", action="store_true",
                   help="single-line Chrome JSON (default: indented)")
    return p


def profile_main(argv: list[str] | None = None) -> int:
    """``repro profile`` — run once with a recorder, emit the report."""
    args = build_profile_parser().parse_args(argv)
    graph = _load(args.input)
    recorder = Recorder()
    _solve(args, graph, recorder=recorder)
    tl = timeline(recorder, args.threads)
    report = format_profile_report(
        tl, trace_doc=trace_doc(recorder), top=args.top,
        title=str(args.input))
    if args.chrome is not None:
        _write_chrome(args.chrome, to_chrome_trace(
            tl, experiment=str(args.input), seed=args.seed),
            "chrome trace", args.compact)
    _write_text(args.output, report, "report")
    return 0


def build_metrics_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro metrics",
        description="Run GVE-Leiden with a recorder and emit its "
                    "byte-deterministic metrics snapshot "
                    "(counters/gauges/histograms with labels; JSON "
                    "repro.metrics/1 or Prometheus text exposition)",
    )
    p.add_argument("input", help=_INPUT_HELP)
    _add_solve_args(p)
    p.add_argument("--format", choices=["json", "prom"], default="json",
                   dest="fmt",
                   help="output format: JSON snapshot (default) or "
                        "Prometheus text exposition")
    p.add_argument("--output", type=Path, default=None,
                   help="write the snapshot here instead of stdout")
    p.add_argument("--compact", action="store_true",
                   help="single-line JSON (default: indented)")
    return p


def metrics_main(argv: list[str] | None = None) -> int:
    """``repro metrics`` — run once with a recorder, emit its families."""
    args = build_metrics_parser().parse_args(argv)
    graph = _load(args.input)
    recorder = Recorder()
    result = _solve(args, graph, recorder=recorder)
    # The trace's batch/color-class histograms join as trace_* families.
    families = {**recorder.families,
                **trace_families(trace_tree(recorder))}
    if args.fmt == "prom":
        text = to_prometheus(families)
        validate_prometheus(text)
        _write_text(args.output, text.rstrip("\n"), "metrics")
        return 0
    _write_json(args.output, to_snapshot(
        families,
        experiment=str(args.input),
        seed=args.seed,
        modularity=modularity(graph, result.membership),
        num_passes=result.num_passes,
        num_communities=result.num_communities,
        total_work=result.ledger.total_work,
    ), "metrics", args.compact)
    return 0


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
    p.add_argument("--trace", type=Path, default=None, dest="trace_output",
                   help="also record the run and write the span/counter "
                        "trace JSON here")
    p.add_argument("--profile", type=Path, default=None,
                   dest="profile_output",
                   help="also record the run and write the Chrome "
                        "trace-event JSON of its timeline here (request "
                        "lane + solve timelines)")
    p.add_argument("--metrics", type=Path, default=None,
                   dest="metrics_output",
                   help="also record the run and write its "
                        "byte-deterministic metrics snapshot JSON here")
    p.add_argument("--mem", type=Path, default=None, dest="mem_output",
                   help="also record the run and write the "
                        "byte-deterministic repro.memory/1 report of the "
                        "store (bytes per entry, peak watermarks) here")
    p.add_argument("--compact", action="store_true",
                   help="single-line JSON (default: indented)")
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
    if (args.trace_output is not None or args.profile_output is not None
            or args.metrics_output is not None
            or args.mem_output is not None):
        recorder = Recorder()
        server = PartitionServer(service_config, recorder=recorder)
    result = run_workload(
        args.workload,
        seed=args.seed,
        server=server,
        service_config=service_config,
        verify=not args.no_verify,
    )
    experiment = f"serve:{args.workload}"
    _write_json(args.output, result.to_json_dict(), "stats", args.compact)
    if args.trace_output is not None:
        _write_json(args.trace_output, trace_doc(
            recorder, experiment=experiment, seed=args.seed), "trace",
            args.compact)
    if args.profile_output is not None:
        _write_chrome(args.profile_output, to_chrome_trace(
            timeline(recorder), experiment=experiment,
            seed=args.seed), "profile", args.compact)
    if args.metrics_output is not None:
        _write_json(args.metrics_output, to_snapshot(
            recorder.families,
            experiment=experiment,
            seed=args.seed,
            clock_units=int(server.clock),
        ), "metrics", args.compact)
    if args.mem_output is not None:
        # The serving-side report: the store's entries, not the
        # solves' transient buffers.
        doc = MemoryView(recorder, components=("store",)).to_snapshot(
            experiment=experiment, seed=args.seed)
        validate_memory_doc(doc)
        _write_json(args.mem_output, doc, "memory report", args.compact)
    if not args.no_verify and not all(
            result.membership_matches_scratch.values()):
        print("error: served membership diverged from from-scratch solve",
              file=sys.stderr)
        return 1
    return 0


def build_mem_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro mem",
        description="Run GVE-Leiden with a recorder and "
                    "emit the byte-deterministic repro.memory/1 report "
                    "(logical allocation events, per-component and "
                    "per-phase peak watermarks; the logical section is "
                    "worker-count-invariant)",
    )
    p.add_argument("input", help=_INPUT_HELP)
    _add_solve_args(p)
    p.add_argument("--output", type=Path, default=None,
                   help="write the memory report JSON here instead of "
                        "stdout")
    p.add_argument("--chrome", type=Path, default=None,
                   help="write the Chrome-trace memory counter lanes "
                        "here (open in chrome://tracing or Perfetto)")
    p.add_argument("--rss", action="store_true",
                   help="also print the process RSS peak "
                        "(resource.getrusage) and the logical-vs-real "
                        "ratio — informational, never part of the "
                        "report document")
    p.add_argument("--compact", action="store_true",
                   help="single-line JSON (default: indented)")
    return p


def mem_main(argv: list[str] | None = None) -> int:
    """``repro mem`` — run once with a recorder, emit the memory report."""
    args = build_mem_parser().parse_args(argv)
    graph = _load(args.input)
    recorder = Recorder()
    # Graph loads are memoized, so the input CSR may predate the
    # recorder; charge it explicitly so the report covers the input.
    record_csr(recorder, graph)
    _solve(args, graph, recorder=recorder)
    memory = MemoryView(recorder)
    doc = memory.to_snapshot(
        experiment=str(args.input),
        seed=args.seed,
        engine=args.engine,
    )
    validate_memory_doc(doc)
    _write_json(args.output, doc, "memory report", args.compact)
    if args.chrome is not None:
        _write_chrome(args.chrome, memory.to_chrome_trace(
            experiment=str(args.input), seed=args.seed),
            "memory chrome trace", args.compact)
    if args.rss:
        # Informational only: real RSS is machine- and allocator-
        # dependent, so it never enters the (gated) report document.
        import resource

        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss_bytes = int(rss_kib) * 1024
        peak = doc["logical"]["peak_bytes"]
        ratio = peak / rss_bytes if rss_bytes else 0.0
        print(f"rss peak: {rss_bytes} B ({rss_bytes / 2**20:.1f} MiB); "
              f"logical peak {peak} B is {ratio:.1%} of real "
              f"(informational, not gated)")
    return 0


def bench_main(argv: list[str] | None = None) -> int:
    """``repro bench`` — the evaluation harness (:mod:`repro.bench`)."""
    from repro.bench.__main__ import main as main_

    return main_(argv)


#: First-token subcommands understood by :func:`main`; anything else
#: (including ``run``) is the detection run.
_SUBCOMMANDS = {
    "trace": trace_main, "profile": profile_main, "metrics": metrics_main,
    "bench": bench_main, "serve": serve_main, "mem": mem_main,
}


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
    result = _solve(args, graph, config,
                    algo=leiden if args.algorithm == "leiden" else louvain)

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
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
