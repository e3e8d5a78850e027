#!/usr/bin/env python
"""Process engine: worker processes over shared memory, batch-exact.

Runs GVE-Leiden on a registry graph twice — once on the single-process
``batch`` engine and once on the ``process`` engine, whose workers are
separate interpreter processes mapping the CSR arrays through
``multiprocessing.shared_memory`` — and shows that the memberships are
bitwise identical.  It also prints how many local-moving batches the
pool scanned: a batch goes to the workers only when it holds at least
``POOL_MIN_EDGES`` edges, and the parent scans every smaller one itself,
as the batch engine does.  On this graph most batches are small.

Run with:  python examples/process_engine.py
"""

import time

from repro import LeidenConfig, leiden, modularity
from repro.core.local_move_process import POOL_MIN_EDGES
from repro.datasets.registry import load_graph
from repro.observability.metrics import MetricsRegistry
from repro.parallel.runtime import Runtime

GRAPH = "com-LiveJournal"
WORKERS = 2


def main() -> None:
    graph = load_graph(GRAPH, seed=1)
    print(f"graph: {GRAPH} "
          f"({graph.num_vertices} vertices, {graph.num_edges} edges)")

    # Oracle: the single-process batch engine.
    t0 = time.perf_counter()
    oracle = leiden(graph, LeidenConfig(engine="batch", seed=42))
    batch_wall = time.perf_counter() - t0

    # Process engine: same algorithm, large batches fanned out to worker
    # processes over shared memory.  The Runtime owns the pool; close()
    # (or the context manager) reaps the workers and the segments.
    metrics = MetricsRegistry()
    t0 = time.perf_counter()
    with Runtime(num_threads=WORKERS, executor="process", seed=42,
                 metrics=metrics) as rt:
        result = leiden(graph, LeidenConfig(engine="process", seed=42),
                        runtime=rt)
        # A pooled batch is split into one chunk task per worker.
        pooled = rt.procpool().tasks_dispatched // WORKERS
    process_wall = time.perf_counter() - t0

    edges = metrics.get("proc_worker_edges_total")
    pool_edges = sum(edges.value(str(w)) for w in range(WORKERS))
    parent_edges = edges.value("parent")
    same = bool((result.membership == oracle.membership).all())
    print(f"batch engine:   {batch_wall:.2f}s wall, "
          f"{oracle.num_communities} communities, "
          f"Q={modularity(graph, oracle.membership):.4f}")
    print(f"process engine: {process_wall:.2f}s wall at {WORKERS} workers, "
          f"{result.num_communities} communities")
    print(f"move batches scanned in the pool (>= {POOL_MIN_EDGES} edges): "
          f"{pooled}; edges scanned in the pool: {pool_edges:.0f}, "
          f"in the parent: {parent_edges:.0f}")
    print(f"membership bitwise-identical to the simulated oracle: {same}")
    if not same:
        raise SystemExit("process engine diverged from the batch oracle")


if __name__ == "__main__":
    main()
