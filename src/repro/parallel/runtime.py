"""Runtime facade: thread count, worker pool and accounting.

A :class:`Runtime` is passed through every phase of the algorithms.  It
owns the work ledger (for modelled time), the per-thread hashtables and
— for the ``process`` engine — the persistent worker-process pool, and
it builds the per-pass kernel workspaces.
Every phase executes in the calling process except the process
engine's local-moving, which fans out through :meth:`Runtime.procpool`.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List

from repro.errors import ConfigError
from repro.observability.recorder import NULL_RECORDER, REGION_FAMILIES
from repro.parallel.hashtable import CollisionFreeHashtable
from repro.parallel.simthread import WorkLedger

#: Accepted ``executor`` values.  Nothing dispatches on the value any
#: more: the process engine reaches its pool through :meth:`procpool`.
_EXECUTORS = ("serial", "process")


class Runtime:
    """Execution context for one algorithm run.

    Parameters
    ----------
    num_threads:
        Thread count the run models; also the :meth:`procpool` worker
        count.  Parallel regions use OpenMP's ``dynamic`` schedule
        (chunk 2048), as the paper does.
    seed:
        Seed of the worker pool's task-dispatch order.
    executor:
        ``"serial"`` (default) or ``"process"``.  Accepted for
        compatibility and validated; it selects nothing — the engine
        (:attr:`LeidenConfig.engine`) decides whether :meth:`procpool`
        is used.
    recorder:
        :class:`~repro.observability.recorder.Recorder` the runtime,
        the phases and the buffer owners write their events to;
        defaults to the disabled
        :data:`~repro.observability.recorder.NULL_RECORDER` (zero cost).
    """

    def __init__(
        self,
        num_threads: int = 1,
        *,
        seed: int = 12345,
        executor: str = "serial",
        recorder=None,
    ) -> None:
        if num_threads < 1:
            raise ConfigError("num_threads must be >= 1")
        if executor not in _EXECUTORS:
            raise ConfigError(f"executor must be one of {_EXECUTORS}")
        self.num_threads = int(num_threads)
        self.executor = executor
        self.ledger = WorkLedger()
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        if self.recorder.enabled:
            for family in REGION_FAMILIES:
                self.recorder.family(*family)
        self.seed = int(seed)
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
            )
            rec = self.recorder
            if rec.enabled:
                rec.family("gauge", "proc_pool_workers",
                           "worker processes in the runtime's pool")
                rec.metric("proc_pool_workers", self._procpool.num_workers)
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
        """One phase of a pass: the single place where a phase opens.

        Opens the recorder's span ``span`` with ``attrs`` (no span when
        ``span`` is None: bookkeeping between phases stays under the pass
        span), attributes the block's allocations to ``phase``, and adds
        the block's wall time to ``seconds[phase]``.  A block that raises
        still closes its span, restores the allocation phase and adds its
        seconds.
        """
        t0 = perf_counter()
        try:
            with self.recorder.phase(phase, span, **attrs):
                yield
        finally:
            seconds[phase] += perf_counter() - t0

    # -- accounting --------------------------------------------------------------

    def record_parallel(
        self,
        item_costs,
        *,
        phase: str,
        atomics: float = 0.0,
        per_item: float = 0.0,
    ) -> None:
        """Record one parallel region's per-item work in the ledger.

        ``item_costs`` and ``per_item`` are as in
        :meth:`WorkLedger.parallel`: an array of item costs, or a count
        of items (which needs a nonzero ``per_item``), plus a constant
        cost per item.  A recorded region is one recorder event.
        """
        regions = self.ledger.regions
        n_before = len(regions)
        self.ledger.parallel(item_costs, phase=phase, atomics=atomics,
                             per_item=per_item)
        if self.recorder.enabled and len(regions) > n_before:
            self.recorder.region(regions[-1])

    def record_serial(self, cost: float, *, phase: str) -> None:
        """Record sequential work in the ledger (one recorder event)."""
        regions = self.ledger.regions
        n_before = len(regions)
        self.ledger.serial(cost, phase=phase)
        if self.recorder.enabled and len(regions) > n_before:
            self.recorder.region(regions[-1])

    # -- misc -------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Runtime(threads={self.num_threads}, "
                f"executor={self.executor})")
