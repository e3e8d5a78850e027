"""Runtime facade: thread count, schedule, worker pool and accounting.

A :class:`Runtime` is passed through every phase of the algorithms.  It
owns the work ledger (for modelled time), the per-thread RNGs and
hashtables and — for the ``process`` engine — the persistent
worker-process pool, and it builds the per-pass kernel workspaces.
Every phase executes in the calling process except the process
engine's local-moving, which fans out through :meth:`Runtime.procpool`.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Dict, List, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.observability import memtrack
from repro.observability.memtrack import NULL_LEDGER
from repro.observability.metrics import NULL_REGISTRY
from repro.observability.profiler import NULL_PROFILER
from repro.observability.tracer import NULL_TRACER
from repro.parallel.costmodel import PAPER_MACHINE, MachineModel
from repro.parallel.hashtable import CollisionFreeHashtable
from repro.parallel.rng import Xorshift32
from repro.parallel.schedule import DEFAULT_CHUNK, Schedule, chunk_spans
from repro.parallel.simthread import SimulatedTime, WorkLedger

#: Accepted ``executor`` values.  Nothing dispatches on the value any
#: more: the process engine reaches its pool through :meth:`procpool`.
_EXECUTORS = ("serial", "process")


class Runtime:
    """Execution context for one algorithm run.

    Parameters
    ----------
    num_threads:
        Thread count the run models; also the :meth:`procpool` worker
        count.
    schedule:
        Loop schedule; the paper uses OpenMP ``dynamic`` (chunked).
    seed:
        Seed for the master xorshift32; per-thread generators are spawned
        from it.
    executor:
        ``"serial"`` (default) or ``"process"``.  Accepted for
        compatibility and validated; it selects nothing — the engine
        (:attr:`LeidenConfig.engine`) decides whether :meth:`procpool`
        is used.
    machine:
        Machine model used by :meth:`simulate`; defaults to the paper's
        dual-Xeon testbed.
    tracer:
        Observability tracer the phases report spans and counters to;
        defaults to the disabled :data:`~repro.observability.tracer.NULL_TRACER`
        (zero cost).
    profiler:
        Thread-timeline profiler capturing every recorded region as an
        event-log entry; defaults to the disabled
        :data:`~repro.observability.profiler.NULL_PROFILER` (zero cost).
    metrics:
        Metric registry the runtime and phases report typed instruments
        to; defaults to the disabled
        :data:`~repro.observability.metrics.NULL_REGISTRY` (zero cost).
    memory:
        :class:`~repro.observability.memtrack.MemoryLedger` the buffer
        owners (workspaces, shm arenas, CSR builds) record logical
        allocation events to; defaults to the disabled
        :data:`~repro.observability.memtrack.NULL_LEDGER` (zero cost).
    """

    def __init__(
        self,
        num_threads: int = 1,
        *,
        schedule: Schedule | None = None,
        seed: int = 12345,
        executor: str = "serial",
        machine: MachineModel | None = None,
        tracer=None,
        profiler=None,
        metrics=None,
        memory=None,
    ) -> None:
        if num_threads < 1:
            raise ConfigError("num_threads must be >= 1")
        if executor not in _EXECUTORS:
            raise ConfigError(f"executor must be one of {_EXECUTORS}")
        self.num_threads = int(num_threads)
        self.schedule = schedule or Schedule("dynamic", DEFAULT_CHUNK)
        self.executor = executor
        self.machine = machine or PAPER_MACHINE
        self.ledger = WorkLedger()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.memory = memory if memory is not None else NULL_LEDGER
        m = self.metrics
        self._m_parallel_regions = m.counter(
            "runtime_parallel_regions_total",
            "parallel regions recorded in the work ledger", ("phase",))
        self._m_chunks = m.counter(
            "runtime_chunks_total",
            "loop chunks dispatched, by phase and scheduling policy",
            ("phase", "policy"))
        self._m_atomics = m.counter(
            "runtime_atomic_ops_total",
            "modelled atomic operations", ("phase",))
        self._m_barriers = m.counter(
            "runtime_barriers_total",
            "implicit end-of-region barriers", ("phase",))
        self._m_work = m.counter(
            "runtime_work_units_total",
            "parallel work units recorded", ("phase",))
        self._m_serial_work = m.counter(
            "runtime_serial_work_units_total",
            "sequential work units recorded", ("phase",))
        self.seed = int(seed)
        self.master_rng = Xorshift32(seed)
        self.thread_rngs: List[Xorshift32] = self.master_rng.spawn(self.num_threads)
        self._procpool = None

    # -- per-thread resources ------------------------------------------------

    def hashtables(self, capacity: int) -> List[CollisionFreeHashtable]:
        """One collision-free hashtable per thread (Algorithms 2-4)."""
        return [CollisionFreeHashtable(capacity) for _ in range(self.num_threads)]

    def workspace(self, num_vertices: int, *, phase: str = "other"):
        """A :class:`~repro.core.workspace.KernelWorkspace` whose scratch
        allocation is accounted in this runtime's ledger — the batch
        engine's analogue of :meth:`hashtables` (one up-front allocation
        per pass instead of per-thread tables)."""
        from repro.core.workspace import KernelWorkspace

        return KernelWorkspace(num_vertices, runtime=self, phase=phase)

    # -- execution -------------------------------------------------------------

    def procpool(self, num_workers: int | None = None):
        """The runtime's persistent worker-process pool (lazily created).

        ``num_threads`` doubles as the worker count — the modelled width
        and the real width stay in lockstep.  The pool persists across
        passes (workers start once; arenas are bound per phase) and is
        reaped by :meth:`close`.
        """
        from repro.parallel.procpool import ProcessPool

        if self._procpool is None:
            self._procpool = ProcessPool(
                num_workers if num_workers is not None else self.num_threads,
                seed=self.seed,
                memory=self.memory,
            )
            if self.metrics.enabled:
                self.metrics.gauge(
                    "proc_pool_workers",
                    "worker processes in the runtime's pool",
                ).set(self._procpool.num_workers)
        return self._procpool

    def close(self) -> None:
        """Shut down the process pool, if created."""
        if self._procpool is not None:
            self._procpool.close()
            self._procpool = None

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- phases ------------------------------------------------------------------

    @contextmanager
    def phase(self, phase: str, seconds: Dict[str, float],
              span: str | None = None, **attrs):
        """One phase of a pass: the single place where a phase's span,
        memory phase and wall time open.

        Opens the tracer span ``span`` with ``attrs`` and yields it (no
        span when ``span`` is None: bookkeeping between phases stays
        under the pass span), attributes the active memory ledger's
        allocations to ``phase``, and adds the block's wall time to
        ``seconds[phase]``.  A block that raises still closes its span,
        restores the memory phase and adds its seconds.
        """
        t0 = perf_counter()
        try:
            with (self.tracer.span(span, **attrs) if span is not None
                  else nullcontext()) as opened, memtrack.phase_scope(phase):
                yield opened
        finally:
            seconds[phase] += perf_counter() - t0

    # -- accounting --------------------------------------------------------------

    def record_parallel(
        self,
        item_costs,
        *,
        phase: str,
        atomics: float = 0.0,
        schedule: Schedule | None = None,
        per_item: float = 0.0,
    ) -> None:
        """Record one parallel region's per-item work in the ledger.

        ``item_costs`` and ``per_item`` are as in
        :meth:`WorkLedger.parallel`: an array of item costs, or a count
        of items (which needs a nonzero ``per_item``), plus a constant
        cost per item.

        With tracing enabled, the region is also reported to the tracer:
        atomic-op and barrier counts, total work units, and the modelled
        per-thread clock skew (slowest-thread minus mean work at the
        machine's full thread count — the load-imbalance signal).
        """
        n_before = len(self.ledger.regions)
        self.ledger.parallel(
            item_costs,
            phase=phase,
            schedule=schedule or self.schedule,
            atomics=atomics,
            per_item=per_item,
        )
        tracer = self.tracer
        if len(self.ledger.regions) > n_before:
            region = self.ledger.regions[-1]
            if self.metrics.enabled:
                sched = schedule or self.schedule
                self._m_parallel_regions.labels(phase).inc()
                self._m_barriers.labels(phase).inc()
                self._m_chunks.labels(phase, sched.kind).inc(
                    region.chunk_costs.shape[0])
                self._m_atomics.labels(phase).inc(region.atomics)
                self._m_work.labels(phase).inc(
                    float(region.chunk_costs.sum()))
            if tracer.enabled:
                tracer.count("parallel_regions")
                # Every modelled parallel-for ends in an implicit barrier.
                tracer.count("barriers")
                tracer.count("atomic_ops", region.atomics)
                tracer.count("work_units", float(region.chunk_costs.sum()))
                t = self.machine.max_threads
                span = WorkLedger._region_span(region, self.machine, t, 1.0)
                mean = (
                    float(region.chunk_costs.sum())
                    + self.machine.chunk_overhead_units * region.chunk_costs.shape[0]
                ) / t
                tracer.count("clock_skew_units", max(0.0, span - mean))
            if self.profiler.enabled:
                seconds = self.profiler.record_region(
                    region, label=tracer.span_path() or phase)
                if tracer.enabled:
                    tracer.count("modeled_region_seconds", seconds)

    def record_serial(self, cost: float, *, phase: str) -> None:
        """Record sequential work in the ledger."""
        n_before = len(self.ledger.regions)
        self.ledger.serial(cost, phase=phase)
        tracer = self.tracer
        if self.metrics.enabled and cost > 0:
            self._m_serial_work.labels(phase).inc(float(cost))
        if tracer.enabled and cost > 0:
            tracer.count("serial_regions")
            tracer.count("serial_work_units", float(cost))
        if self.profiler.enabled and len(self.ledger.regions) > n_before:
            seconds = self.profiler.record_region(
                self.ledger.regions[-1],
                label=tracer.span_path() or phase)
            if tracer.enabled:
                tracer.count("modeled_region_seconds", seconds)

    def simulate(
        self,
        *,
        machine: MachineModel | None = None,
        num_threads: int | None = None,
    ) -> SimulatedTime:
        """Modelled runtime of everything recorded so far."""
        return self.ledger.simulate(
            machine or self.machine,
            num_threads if num_threads is not None else self.num_threads,
        )

    # -- misc -------------------------------------------------------------------

    def batch_order(self, n_items: int) -> Sequence[np.ndarray]:
        """Vertex-id batches matching the schedule's chunking.

        The batch-parallel kernels process one batch as "the set of
        vertices concurrently in flight", which is how the asynchronous
        OpenMP loop behaves with a dynamic schedule.
        """
        spans = chunk_spans(n_items, self.schedule, self.num_threads)
        return [np.arange(lo, hi, dtype=np.int64) for lo, hi in spans]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Runtime(threads={self.num_threads}, schedule={self.schedule.kind}"
            f"/{self.schedule.chunk}, executor={self.executor})"
        )
