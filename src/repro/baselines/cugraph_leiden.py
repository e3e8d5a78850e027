"""cuGraph Leiden on a simulated NVIDIA A100.

cuGraph executes Leiden as bulk-synchronous GPU kernels.  Two properties
matter for the reproduction:

1. **Device memory**: the A100 has 80 GB.  The paper reports cuGraph
   failing with out-of-memory errors on arabic-2005, uk-2005,
   webbase-2001, it-2004 and sk-2005 — every graph above ~1B edges.  The
   :class:`DeviceModel` reproduces that gate: graph + working set must
   fit in device memory or :class:`repro.errors.SimulatedOutOfMemory` is
   raised.  When a registry stand-in carries its paper-scale statistics,
   the check uses the *paper's* edge count, so the same five graphs fail.

2. **BSP races in refinement**: the GPU kernels test isolation against
   the epoch snapshot but cannot serialize commits within an epoch; rare
   races leave a tiny fraction of disconnected communities (the paper
   measures ~6.6e-5) and cost a little modularity (~3.5% on average).
   ``refine_guard="racy"`` reproduces exactly that failure mode.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import LeidenConfig
from repro.core.leiden import leiden
from repro.core.result import (
    PHASE_AGGREGATE,
    PHASE_LOCAL_MOVE,
    PHASE_REFINE,
    LeidenResult,
)
from repro.datasets.registry import GraphSpec
from repro.errors import SimulatedOutOfMemory
from repro.graph.csr import CSRGraph
from repro.observability.memtrack import MemoryView
from repro.observability.recorder import Recorder
from repro.parallel.runtime import Runtime

__all__ = ["cugraph_leiden", "DeviceModel", "A100_DEVICE", "CUGRAPH_LEIDEN_CONFIG"]


@dataclass(frozen=True)
class DeviceModel:
    """A GPU device's memory budget for graph analytics."""

    name: str = "A100"
    memory_bytes: int = 80 * 1024**3
    #: Bytes of device memory per stored edge: CSR both directions,
    #: COO staging, per-edge scratch for the BSP kernels.
    bytes_per_edge: float = 72.0
    #: Bytes per vertex: memberships, weights, hash state, frontier.
    bytes_per_vertex: float = 96.0

    def required_bytes(self, num_vertices: float, num_edges: float) -> int:
        return int(
            num_edges * self.bytes_per_edge
            + num_vertices * self.bytes_per_vertex
        )

    def allocation_plan(self, num_vertices: float, num_edges: float):
        """The device working set as staged constituent allocations.

        Breaks the 72 B/edge + 96 B/vertex budget into the buffers the
        GPU pipeline actually holds, by component and Leiden phase, so
        an OOM can name what filled the card.  Fractions sum exactly to
        ``bytes_per_edge``/``bytes_per_vertex``; the last entry absorbs
        integer-rounding remainders so the staged total always equals
        :meth:`required_bytes`.
        """
        e, v = float(num_edges), float(num_vertices)
        plan = [
            # (component, buffer, phase, exact bytes)
            ("csr", "adjacency", "other", e * 24.0),
            ("coo", "staging", "other", e * 24.0),
            ("kernels", "edge_scratch", PHASE_LOCAL_MOVE, e * 24.0),
            ("csr", "offsets", "other", v * 16.0),
            ("state", "membership", PHASE_LOCAL_MOVE, v * 16.0),
            ("state", "community_weights", PHASE_LOCAL_MOVE, v * 24.0),
            ("kernels", "hash_state", PHASE_REFINE, v * 24.0),
            ("kernels", "frontier", PHASE_AGGREGATE, v * 16.0),
        ]
        need = self.required_bytes(num_vertices, num_edges)
        staged = [(c, w, p, int(b)) for c, w, p, b in plan[:-1]]
        c, w, p, _ = plan[-1]
        staged.append((c, w, p, need - sum(b for *_, b in staged)))
        return staged

    def check_fit(self, num_vertices: float, num_edges: float, what: str) -> None:
        need = self.required_bytes(num_vertices, num_edges)
        if need > self.memory_bytes:
            # Stage the working set as allocations so the failure names
            # the buffers (largest first) that blew the budget.
            rec = Recorder()
            for comp, buf, phase, nbytes in self.allocation_plan(
                    num_vertices, num_edges):
                rec.alloc(comp, buf, nbytes, phase=phase)
            raise SimulatedOutOfMemory(
                need, self.memory_bytes, what,
                alloc_trace=MemoryView(rec).allocation_trace())


A100_DEVICE = DeviceModel()

CUGRAPH_LEIDEN_CONFIG = LeidenConfig(
    tolerance=1e-4,               # cuGraph's epoch convergence is fine-grained
    threshold_scaling=True,
    tolerance_drop=10.0,
    aggregation_tolerance=0.8,
    max_iterations=20,
    max_passes=10,
    refinement="greedy",
    refine_guard="racy",          # BSP: isolation tested, commits race
    vertex_label="move",
)


def cugraph_leiden(
    graph: CSRGraph,
    *,
    seed: int = 42,
    runtime: Runtime | None = None,
    device: DeviceModel = A100_DEVICE,
    spec: GraphSpec | None = None,
) -> LeidenResult:
    """Run cuGraph-style Leiden under the device-memory model.

    ``spec`` (a registry entry) supplies paper-scale |V|/|E| for the
    memory check, so the stand-ins reproduce the paper's OOM failures;
    without a spec the actual graph size is used.

    Raises
    ------
    SimulatedOutOfMemory
        If the graph does not fit in device memory.
    """
    if spec is not None:
        device.check_fit(spec.paper_vertices, spec.paper_edges, spec.name)
    else:
        device.check_fit(graph.num_vertices, graph.num_edges, "graph")
    cfg = CUGRAPH_LEIDEN_CONFIG.with_(seed=seed)
    rt = runtime or Runtime(num_threads=1, seed=seed)
    return leiden(graph, cfg, runtime=rt)
