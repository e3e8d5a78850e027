#!/usr/bin/env python
"""Metrics smoke: metric families and their exposition.

Demonstrates the metrics document end to end:

1. one GVE-Leiden detection run with a recorder attached to the runtime
   — every hot layer (parallel runtime, local move, refinement,
   aggregation, kernel dispatch) updates its metric families, and the
   trace's observations join as ``trace_*`` histograms;
2. both byte-deterministic exports — the ``repro.metrics/1`` JSON
   snapshot and Prometheus text exposition (validated).

Run with:  PYTHONPATH=src python examples/metrics_smoke.py
"""

from repro.core.config import LeidenConfig
from repro.datasets.registry import load_graph
from repro.observability.metrics import (
    derived_metrics,
    to_prometheus,
    validate_prometheus,
)
from repro.observability.regression import collect_leiden_metrics


def main() -> None:
    # 1. One recorded detection run.
    graph = load_graph("asia_osm")
    families, _, result = collect_leiden_metrics(
        graph, LeidenConfig(seed=42))
    print(f"asia_osm: {result.num_communities} communities in "
          f"{result.num_passes} passes, "
          f"{len(families)} metric families\n")

    # 2. Exposition: Prometheus text (validated) and JSON percentiles.
    prom = to_prometheus(families)
    report = validate_prometheus(prom)
    print(f"prometheus exposition: {report['families']} families, "
          f"{report['samples']} samples, parses cleanly")
    moves = families["leiden_local_moves_total"].series[()]
    derived = derived_metrics(families)
    print(f"local moves: {moves:.0f}, aggregation shrink p50: "
          f"{derived['leiden_aggregation_shrink_p50']:.3f}")


if __name__ == "__main__":
    main()
