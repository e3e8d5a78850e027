"""Engine A/B benchmark: real wall-clock, batch vs process.

Everything else in the bench suite reports *modelled* seconds.  The
process engine's workers are separate interpreters over shared memory,
so its wall-clock is a real measurement.  This module times the
``batch`` engine (the fastest single-process engine) and the ``process``
engine end-to-end on registry graphs.  The timed batch run doubles as
the oracle: the process membership must equal it bitwise at any worker
count (see :mod:`repro.core.local_move_process`).  The JSON report is
the artifact CI uploads.

The report schema (``repro.bench.engines/3``)::

    {
      "schema": "repro.bench.engines/3",
      "workers": 4, "seed": 42,
      "graphs": [
        {"name": "kmer_V1r", "vertices": ..., "edges": ...,
         "engines": {"batch":   {"wall_seconds": ..., "passes": ...,
                                 "communities": ..., "identical": true,
                                 "peak_logical_bytes": ...},
                     "process": {...}},
         "speedup_process_vs_batch": 0.8},
        ...
      ]
    }

``peak_logical_bytes`` is each run's memory-report peak watermark
(:mod:`repro.observability.memtrack`) — logical bytes, so it is
worker-count-invariant and comparable across engines.  ``identical``
is each engine's membership equality against the batch run, so the
batch row's flag is always true.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Sequence

import numpy as np

from repro.core.config import LeidenConfig
from repro.core.leiden import leiden
from repro.datasets.registry import load_graph
from repro.observability.memtrack import MemoryView
from repro.observability.recorder import Recorder, record_csr
from repro.parallel.runtime import Runtime

__all__ = ["DEFAULT_AB_GRAPHS", "run_engine_ab", "format_engine_ab", "main"]

#: Report schema tag.
ENGINES_SCHEMA = "repro.bench.engines/3"

#: Graphs the A/B runs by default: the two largest registry graphs (by
#: vertex count) plus one web-crawl representative.
DEFAULT_AB_GRAPHS = ("kmer_V1r", "kmer_A2a", "com-LiveJournal")


def _run_one(graph, engine: str, *, workers: int, seed: int):
    """One timed end-to-end run; returns (result, wall_seconds, peak).

    Only the process engine uses ``workers``; batch runs on the
    one-thread runtime :func:`~repro.core.leiden.leiden` defaults to.
    """
    cfg = LeidenConfig(engine=engine, seed=seed)
    recorder = Recorder()
    record_csr(recorder, graph)  # input graph: loads are memoized
    if engine == "process":
        rt = Runtime(num_threads=workers, executor="process", seed=seed,
                     recorder=recorder)
    else:
        rt = Runtime(num_threads=1, seed=seed, recorder=recorder)
    try:
        t0 = time.perf_counter()
        result = leiden(graph, cfg, runtime=rt)
        wall = time.perf_counter() - t0
    finally:
        rt.close()
    return result, wall, MemoryView(recorder).peak_bytes()


def run_engine_ab(
    graphs: Sequence[str] | None = None,
    *,
    workers: int = 4,
    seed: int = 42,
) -> Dict:
    """Time batch and process on each graph; batch is the oracle."""
    names = list(graphs) if graphs is not None else list(DEFAULT_AB_GRAPHS)
    rows: List[Dict] = []
    for name in names:
        g = load_graph(name, seed=1)
        row: Dict = {
            "name": name,
            "vertices": int(g.num_vertices),
            "edges": int(g.num_edges),
            "engines": {},
        }
        runs = {
            engine: _run_one(g, engine, workers=workers, seed=seed)
            for engine in ("batch", "process")
        }
        oracle = runs["batch"][0].membership
        for engine, (result, wall, peak) in runs.items():
            row["engines"][engine] = {
                "wall_seconds": round(wall, 4),
                "passes": int(result.num_passes),
                "communities": int(result.num_communities),
                "identical": bool(np.array_equal(result.membership, oracle)),
                "peak_logical_bytes": int(peak),
            }
        batch, proc = row["engines"]["batch"], row["engines"]["process"]
        if proc["wall_seconds"] > 0:
            row["speedup_process_vs_batch"] = round(
                batch["wall_seconds"] / proc["wall_seconds"], 3)
        rows.append(row)
    return {
        "schema": ENGINES_SCHEMA,
        "workers": int(workers),
        "seed": int(seed),
        "graphs": rows,
    }


def format_engine_ab(report: Dict) -> str:
    """Human-readable table of an A/B report."""
    lines = [
        f"engine A/B at {report['workers']} workers "
        f"(seed {report['seed']})",
        f"{'graph':<18s} {'engine':<9s} {'wall s':>8s} {'passes':>6s} "
        f"{'comms':>7s} {'oracle':>7s} {'peak MiB':>9s}",
    ]
    for row in report["graphs"]:
        for engine, stats in row["engines"].items():
            peak = stats.get("peak_logical_bytes", 0) / 2**20
            lines.append(
                f"{row['name']:<18s} {engine:<9s} "
                f"{stats['wall_seconds']:>8.3f} {stats['passes']:>6d} "
                f"{stats['communities']:>7d} "
                f"{'ok' if stats['identical'] else 'DIFF':>7s} "
                f"{peak:>9.2f}")
        if "speedup_process_vs_batch" in row:
            lines.append(
                f"{'':<18s} speedup process vs batch: "
                f"{row['speedup_process_vs_batch']:.2f}x")
    return "\n".join(lines)


def main(
    *,
    graphs: Sequence[str] | None = None,
    workers: int = 4,
    seed: int = 42,
    output: str | None = None,
) -> int:
    """CLI entry for ``repro bench --engines``.

    Fails (exit 1) when the process membership diverges from the batch
    oracle on any graph.
    """
    report = run_engine_ab(graphs, workers=workers, seed=seed)
    print(format_engine_ab(report))
    if output:
        from pathlib import Path

        Path(output).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"engine A/B report written to {output}")
    failed = False
    for row in report["graphs"]:
        if not row["engines"]["process"]["identical"]:
            print(f"error: process membership diverged from the "
                  f"batch oracle on {row['name']}")
            failed = True
    return 1 if failed else 0
