"""Preallocated kernel workspaces for the batch-parallel phases.

GVE-Leiden's headline optimization is *preallocated per-thread
collision-free hashtables*: every thread allocates one dense keys/values
pair up front and reuses it for every vertex it scans, instead of
malloc-ing a container per vertex.  :class:`KernelWorkspace` is the batch
engine's analogue: it preallocates one dense int64 map over the vertex
id domain **once per Leiden pass**, and is threaded through
``local_move_batch`` and ``refine_batch`` so every batch of every
iteration reuses the same scratch memory.  ``scatter_add`` compacts
sparse updates into a large target through the map when their ids span
too wide a window to sum in place, and refinement's batch commit writes
its label-to-position table into it.

The workspace dispatches the batch kernels (the packed-key pair sums,
the sorted argmax and the scatter-add), counts each dispatch, and
accounts the map's allocation in the runtime cost model, the way the
paper's per-thread table allocation shows up in its measured runtimes.
The sort family in :mod:`repro.core._kernels` is the tests' bitwise
oracle for these kernels, not a production option.
"""

from __future__ import annotations

import numpy as np

from repro.core._kernels import (
    scatter_add,
    segment_pair_sums_packed,
    segmented_argmax_sorted,
)
from repro.observability.metrics import NULL_REGISTRY
from repro.observability.tracer import NULL_TRACER

__all__ = ["KernelWorkspace"]

#: ``engine`` label of ``kernel_dispatch_total`` and prefix of the
#: ``kernel_count_<kernel>`` tracer counters.  Only one kernel family
#: runs in production; the label is a historical name that stays so
#: committed metric snapshots keep their bytes.
DISPATCH_ENGINE = "count"

#: Work units charged per preallocated map slot (allocation + first
#: touch is a fraction of one edge-scan-plus-table-update work unit).
ALLOC_UNITS_PER_SLOT = 0.0625


class KernelWorkspace:
    """Per-pass scratch map plus the batch-kernel dispatch.

    Parameters
    ----------
    num_vertices:
        Size of the key domain — community ids seen by the kernels are
        ``< num_vertices`` (memberships are kept compact per pass).
    runtime:
        When given, the workspace's allocation is recorded in the
        runtime's work ledger under ``phase`` — the simulated-thread
        timings then include the table-allocation cost exactly like the
        paper's per-thread hashtable setup.
    """

    def __init__(
        self,
        num_vertices: int,
        *,
        runtime=None,
        phase: str = "other",
    ) -> None:
        self.num_vertices = int(num_vertices)
        # The map is the "keys" array of a collision-free hashtable
        # covering the whole id domain; only slots named by a batch are
        # ever touched, so it is allocated once and never cleared.
        # np.empty: contents are irrelevant by construction.
        self._map = np.empty(max(self.num_vertices, 1), dtype=np.int64)
        self._tracer = runtime.tracer if runtime is not None else NULL_TRACER
        metrics = runtime.metrics if runtime is not None else NULL_REGISTRY
        self._m_dispatch = metrics.counter(
            "kernel_dispatch_total",
            "kernel invocations, by engine and kernel name",
            ("engine", "kernel"))
        # Bound children resolved once per kernel name, not per dispatch.
        self._m_bound: dict = {}
        #: Memory-ledger handle of the map (-1 when unrecorded).
        self._mem_handle = -1
        if runtime is not None:
            self._account_allocation(runtime, phase)

    def _account_allocation(self, runtime, phase: str) -> None:
        """Charge the map allocation to the cost model (chunked items)
        and record it in the memory ledger."""
        slots = max(self.num_vertices, 1)
        chunk = 4096
        n_chunks = (slots + chunk - 1) // chunk
        costs = np.full(n_chunks, chunk * ALLOC_UNITS_PER_SLOT)
        costs[-1] = (slots - (n_chunks - 1) * chunk) * ALLOC_UNITS_PER_SLOT
        runtime.record_parallel(costs, phase=phase)
        if runtime.tracer.enabled:
            runtime.tracer.count("mem_workspace_alloc_slots", slots)
        memory = getattr(runtime, "memory", None)
        if memory is not None and memory.enabled:
            self._mem_handle = memory.alloc(
                "workspace", "scratch_map", self._map.nbytes,
                phase=phase, dtype=str(self._map.dtype))

    # -- kernel dispatch ---------------------------------------------------

    def _count_dispatch(self, kernel: str) -> None:
        """Per-kernel dispatch counter (``kernel_count_<kernel>``) so
        traces show how often each kernel served a phase."""
        bound = self._m_bound.get(kernel)
        if bound is None:
            bound = self._m_dispatch.labels(DISPATCH_ENGINE, kernel)
            self._m_bound[kernel] = bound
        bound.inc()
        if self._tracer.enabled:
            self._tracer.count(f"kernel_{DISPATCH_ENGINE}_{kernel}")

    def pair_sums(self, seg, comm, weights, num_segments: int):
        """Per-``(seg, comm)`` weight sums (the packed-key kernel)."""
        self._count_dispatch("pair_sums")
        return segment_pair_sums_packed(
            seg, comm, weights, num_segments, self.num_vertices)

    def argmax(self, seg, values):
        """Segmented argmax; ``seg`` is sorted by kernel-output contract."""
        self._count_dispatch("argmax")
        return segmented_argmax_sorted(seg, values)

    def scatter_add(self, target, idx, weights) -> None:
        """Scatter-add with duplicate indices (bincount)."""
        self._count_dispatch("scatter_add")
        scatter_add(target, idx, weights, self._map)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KernelWorkspace(n={self.num_vertices})"
