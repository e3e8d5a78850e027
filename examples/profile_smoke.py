#!/usr/bin/env python
"""Profile a smoke run: thread timeline, Chrome export, attribution.

Runs GVE-Leiden on the bundled ``asia_osm`` smoke graph with a recorder
attached, then projects the one record three ways:

1. prints the deterministic attribution report (critical path,
   barrier-wait share, load imbalance, convergence monitor from the
   trace);
2. writes ``profile_smoke_trace.json`` to a temporary directory — a
   Chrome trace-event file with one lane per simulated thread, viewable
   in chrome://tracing or https://ui.perfetto.dev;
3. shows how the same recording replays at other thread counts.

Run with:  PYTHONPATH=src python examples/profile_smoke.py
"""

import tempfile
from pathlib import Path

from repro.core.config import LeidenConfig
from repro.core.leiden import leiden
from repro.datasets.registry import load_graph
from repro.observability.profile_report import format_profile_report
from repro.observability.profiler import (
    chrome_trace_json,
    timeline,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.observability.recorder import Recorder
from repro.observability.tracer import trace_doc
from repro.parallel.runtime import Runtime


def main() -> None:
    graph = load_graph("asia_osm")
    recorder = Recorder()
    rt = Runtime(num_threads=1, seed=42, recorder=recorder)
    result = leiden(graph, LeidenConfig(seed=42), runtime=rt)
    print(f"asia_osm: {result.num_communities} communities in "
          f"{result.num_passes} passes, {len(recorder.events)} events\n")

    # 1. The attribution report at the canonical 8 threads.
    report = format_profile_report(
        timeline(recorder, 8), trace_doc=trace_doc(recorder), top=5,
        title="asia_osm")
    print(report)

    # 2. Chrome trace export (validated, byte-deterministic at a seed).
    doc = to_chrome_trace(timeline(recorder, 8), experiment="asia_osm",
                          seed=42)
    stats = validate_chrome_trace(doc)
    out = Path(tempfile.mkdtemp()) / "profile_smoke_trace.json"
    out.write_text(chrome_trace_json(doc, indent=1) + "\n")
    print(f"\nwrote {out}: {stats['events']} events across "
          f"{stats['named_lanes']} lanes — open it in ui.perfetto.dev")

    # 3. One recording, any thread count: the regions replay through the
    # cost model, so scaling questions need no re-run.
    print("\nmodelled total seconds by thread count:")
    for threads in (1, 2, 4, 8, 16, 32):
        tl = timeline(recorder, threads)
        print(f"  T={threads:<3d} {tl.total_seconds:.6f}s")


if __name__ == "__main__":
    main()
