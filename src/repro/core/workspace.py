"""Preallocated kernel workspaces for the batch-parallel phases.

GVE-Leiden's headline optimization is *preallocated per-thread
collision-free hashtables*: every thread allocates one dense keys/values
pair up front and reuses it for every vertex it scans, instead of
malloc-ing a container per vertex.  :class:`KernelWorkspace` is the batch
engine's faithful analogue: it preallocates the dense compaction map the
counting kernels scatter through **once per Leiden pass**, and is
threaded through ``local_move_batch``, ``refine_batch`` and
``aggregate_batch`` so every batch of every iteration reuses the same
scratch memory.

The workspace dispatches the counting kernel family and accounts its
allocation in the runtime cost model, the way the paper's per-thread
table allocation shows up in its measured runtimes.  The O(E log E)
sort family in :mod:`repro.core._kernels` is the tests' bitwise oracle
for these kernels, not a production option.
"""

from __future__ import annotations

import numpy as np

from repro.core._kernels import (
    DENSE_GRID_LIMIT,
    compact_keys,
    scatter_add,
    segment_pair_sums_count,
    segmented_argmax_sorted,
)
from repro.errors import ConfigError
from repro.observability.metrics import NULL_REGISTRY
from repro.observability.tracer import NULL_TRACER

__all__ = ["KernelWorkspace"]

#: ``engine`` label of ``kernel_dispatch_total`` and prefix of the
#: ``kernel_count_<kernel>`` tracer counters.  Only one kernel family
#: runs in production; the label stays so committed metric snapshots
#: keep their bytes.
DISPATCH_ENGINE = "count"

#: Work units charged per preallocated map slot (allocation + first
#: touch is a fraction of one edge-scan-plus-table-update work unit).
ALLOC_UNITS_PER_SLOT = 0.0625


class KernelWorkspace:
    """Per-pass scratch buffers plus the counting-kernel dispatch.

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
    dense_grid_limit:
        Cap (entries) on the dense bincount accumulation grid before the
        count kernels fall back to the compacted-key counting sort.
    scratch_map:
        An externally-owned compaction map to drive the kernels over
        instead of allocating one — the process engine hands each worker
        its slab of a shared-memory scratch segment this way (int64, at
        least ``num_vertices`` slots, never needs clearing).
    """

    def __init__(
        self,
        num_vertices: int,
        *,
        runtime=None,
        phase: str = "other",
        dense_grid_limit: int = DENSE_GRID_LIMIT,
        scratch_map: np.ndarray | None = None,
    ) -> None:
        self.num_vertices = int(num_vertices)
        self.dense_grid_limit = int(dense_grid_limit)
        # The compaction map is the "keys" array of a collision-free
        # hashtable covering the whole id domain; only slots named by a
        # batch are ever touched, so it is allocated once and never
        # cleared.  np.empty: contents are irrelevant by construction.
        owns_map = scratch_map is None
        if scratch_map is not None:
            if (scratch_map.dtype != np.int64
                    or scratch_map.shape[0] < max(self.num_vertices, 1)):
                raise ConfigError(
                    "scratch_map must be int64 with >= num_vertices slots")
            self._map = scratch_map
        else:
            self._map = np.empty(max(self.num_vertices, 1), dtype=np.int64)
        self._tracer = runtime.tracer if runtime is not None else NULL_TRACER
        metrics = runtime.metrics if runtime is not None else NULL_REGISTRY
        self._m_dispatch = metrics.counter(
            "kernel_dispatch_total",
            "kernel invocations, by engine and kernel name",
            ("engine", "kernel"))
        # Bound children resolved once per kernel name, not per dispatch.
        self._m_bound: dict = {}
        #: Memory-ledger handle of the owned map (-1 when unrecorded).
        self._mem_handle = -1
        if runtime is not None:
            self._account_allocation(runtime, phase, owns_map)

    def _account_allocation(self, runtime, phase: str,
                            owns_map: bool) -> None:
        """Charge the map allocation to the cost model (chunked items)
        and record it in the memory ledger.

        The cost-model charge models the allocate-and-first-touch work
        and applies whether the map is owned or handed in (the paper's
        per-thread tables are touched per pass either way).  The
        *ledger* event is recorded only for an owned map: an external
        ``scratch_map`` (the process engine's shm slab) was already
        recorded by its owner, and double-charging would break the
        report's worker-count invariance.
        """
        slots = max(self.num_vertices, 1)
        chunk = 4096
        n_chunks = (slots + chunk - 1) // chunk
        costs = np.full(n_chunks, chunk * ALLOC_UNITS_PER_SLOT)
        costs[-1] = (slots - (n_chunks - 1) * chunk) * ALLOC_UNITS_PER_SLOT
        runtime.record_parallel(costs, phase=phase)
        if runtime.tracer.enabled:
            runtime.tracer.count("mem_workspace_alloc_slots", slots)
        memory = getattr(runtime, "memory", None)
        if owns_map and memory is not None and memory.enabled:
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
        """``segment_pair_sums`` through the counting kernel."""
        self._count_dispatch("pair_sums")
        return segment_pair_sums_count(
            seg, comm, weights, num_segments, self._map,
            dense_grid_limit=self.dense_grid_limit,
        )

    def argmax(self, seg, values):
        """Segmented argmax; ``seg`` is sorted by kernel-output contract."""
        self._count_dispatch("argmax")
        return segmented_argmax_sorted(seg, values)

    def scatter_add(self, target, idx, weights) -> None:
        """Scatter-add with duplicate indices (bincount)."""
        self._count_dispatch("scatter_add")
        scatter_add(target, idx, weights, self._map)

    def compact(self, keys):
        """Dense ``0..u-1`` relabeling of ``keys`` through the map."""
        self._count_dispatch("compact")
        return compact_keys(keys, self._map)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KernelWorkspace(n={self.num_vertices})"
