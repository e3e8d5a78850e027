#!/usr/bin/env python
"""Metrics smoke: typed instruments and their exposition.

Demonstrates the metrics subsystem end to end:

1. one GVE-Leiden detection run with a :class:`MetricsRegistry` attached
   to the runtime — every hot layer (parallel runtime, local move,
   refinement, aggregation, kernel dispatch) records typed series;
2. both byte-deterministic exports — the ``repro.metrics/1`` JSON
   snapshot and Prometheus text exposition (validated).

Run with:  PYTHONPATH=src python examples/metrics_smoke.py
"""

from repro.core.config import LeidenConfig
from repro.observability.metrics import validate_prometheus
from repro.observability.regression import collect_leiden_metrics


def main() -> None:
    # 1. One instrumented detection run.
    from repro.datasets.registry import load_graph

    graph = load_graph("asia_osm")
    registry, tracer, result = collect_leiden_metrics(
        graph, LeidenConfig(seed=42))
    print(f"asia_osm: {result.num_communities} communities in "
          f"{result.num_passes} passes, "
          f"{len(registry)} instrument families\n")

    # 2. Exposition: Prometheus text (validated) and JSON percentiles.
    prom = registry.to_prometheus()
    report = validate_prometheus(prom)
    print(f"prometheus exposition: {report['families']} families, "
          f"{report['samples']} samples, parses cleanly")
    moves = registry.get("leiden_local_moves_total")
    shrink = registry.get("leiden_aggregation_shrink")
    print(f"local moves: {moves.value():.0f}, "
          f"aggregation shrink p50: {shrink.percentile(50.0):.3f}")


if __name__ == "__main__":
    main()
