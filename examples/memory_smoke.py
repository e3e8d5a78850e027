#!/usr/bin/env python
"""Memory smoke: the deterministic allocation report end to end.

Demonstrates the memory document of the recorder:

1. one GVE-Leiden detection run with a recorder attached to the runtime
   — the CSR arrays, the kernel workspace and the aggregation transients
   all record logical alloc/resize/free events, which the report replays
   on its own logical clock;
2. the per-component and per-phase peak watermarks, and the replay
   validator (:func:`validate_memory_doc` re-derives every watermark
   from the event stream);
3. the determinism guarantee — two identical runs emit byte-identical
   ``repro.memory/1`` reports;
4. the device-OOM story — the simulated A100 rejecting ``sk-2005`` with
   an allocation trace naming the component and phase of what filled
   the budget;
5. the Chrome-trace counter lane (``mem_live_bytes``), validated against
   the profile's trace-event schema.

Run with:  PYTHONPATH=src python examples/memory_smoke.py
"""

from repro.baselines.cugraph_leiden import A100_DEVICE
from repro.core.config import LeidenConfig
from repro.core.leiden import leiden
from repro.datasets.registry import graph_spec, load_graph
from repro.errors import SimulatedOutOfMemory
from repro.observability.memtrack import MemoryView, validate_memory_doc
from repro.observability.profiler import validate_chrome_trace
from repro.observability.recorder import Recorder, record_csr
from repro.parallel.runtime import Runtime


def record(graph, seed: int = 42) -> Recorder:
    """One recorded detection run."""
    recorder = Recorder()
    record_csr(recorder, graph)  # charge the input CSR to the report
    with Runtime(num_threads=1, seed=seed, recorder=recorder) as rt:
        leiden(graph, LeidenConfig(seed=seed), runtime=rt)
    return recorder


def run_once(graph, seed: int = 42) -> dict:
    """One recorded detection run -> a ``repro.memory/1`` report."""
    return MemoryView(record(graph, seed)).to_snapshot(
        experiment="asia_osm", seed=seed)


def main() -> None:
    graph = load_graph("asia_osm")

    # 1 + 2. One run; watermarks and the replay validator.
    doc = run_once(graph)
    summary = validate_memory_doc(doc)
    logical = doc["logical"]
    allocs = sum(c["allocs"] for c in logical["components"].values())
    print(f"asia_osm: {allocs} allocations, "
          f"{len(doc['events'])} events on a logical clock, "
          f"replay validates: {bool(summary)}")
    print(f"peak logical bytes: {logical['peak_bytes']:,}")
    for component, stats in sorted(logical["components"].items()):
        print(f"  component {component:<10} peak {stats['peak_bytes']:>9,} B"
              f"  (live at end {stats['live_bytes']:,} B)")
    for phase, stats in sorted(logical["phases"].items()):
        print(f"  phase     {phase:<10} peak {stats['peak_bytes']:>9,} B")

    # 3. Byte determinism: same graph, same seed -> same report.
    import json

    a = json.dumps(run_once(graph), sort_keys=True)
    b = json.dumps(run_once(graph), sort_keys=True)
    print(f"\ndouble runs byte-identical: {a == b}")

    # 4. The simulated A100 rejecting the paper's biggest OOM case with
    # a component/phase-attributed allocation trace.
    spec = graph_spec("sk-2005")
    try:
        A100_DEVICE.check_fit(spec.paper_vertices, spec.paper_edges,
                              "sk-2005")
    except SimulatedOutOfMemory as exc:
        print(f"\nsk-2005 on the A100: required "
              f"{exc.required_bytes / 1024**3:.1f} GiB > "
              f"{exc.capacity_bytes / 1024**3:.0f} GiB capacity")
        print("allocation trace (largest first):")
        for line in exc.alloc_trace[:4]:
            print(f"  {line}")

    # 5. Chrome counter lane, validated against the trace-event schema.
    chrome = MemoryView(record(graph)).to_chrome_trace(
        experiment="asia_osm", seed=42)
    report = validate_chrome_trace(chrome)
    counters = sum(1 for ev in chrome["traceEvents"]
                   if ev.get("name") == "mem_live_bytes")
    print(f"\nchrome export: {counters} mem_live_bytes counter samples, "
          f"schema validates: {bool(report)}")


if __name__ == "__main__":
    main()
