"""Persistent worker-process pool for the ``process`` engine.

CPython's GIL serializes every interpreter instruction, so Python
threads cannot give a speedup.  This pool is the real shared-memory
executor the paper's OpenMP runtime corresponds to — N long-lived worker
*processes*, each with its own interpreter (hence its own GIL), all
mapping the same :class:`~repro.parallel.shm.ShmArena` segments.

Design points:

- **pickling-free kernels** — workers never receive code or arrays.
  Kernels are module-level functions registered under a string name with
  :func:`pool_kernel`; a task message is ``(index, kernel_name, payload)``
  where the payload is a dict of scalars (chunk bounds, parameters).
  Results are written into shared output arrays at chunk offsets; the
  completion token carries only the task index, timings and a small
  reduction value.
- **real synchronization** — dispatch and completion ride
  ``multiprocessing`` queues; the end-of-phase barrier is the parent
  draining one completion token per task.  Kernels take no lock: each
  writes only its own chunk of the shared outputs, and the parent
  mutates shared state only between barriers.
- **deterministic seeded dispatch order** — tasks are enqueued in a
  seeded xorshift32 permutation (:func:`~repro.parallel.schedule.
  seeded_chunk_order`).  Which worker runs which chunk is racy by
  nature; engines built on the pool must make results
  position-addressed so membership is reproducible at any worker count.
- **crash containment** — :meth:`ProcessPool.run` polls worker liveness
  while waiting; a dead worker raises :class:`WorkerCrashError` instead
  of hanging the barrier, and ``close()``/context-exit always reaps the
  children.
"""

from __future__ import annotations

import importlib
import multiprocessing as mp
import queue as queue_mod
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.parallel.rng import Xorshift32
from repro.parallel.schedule import seeded_chunk_order
from repro.parallel.shm import ArenaSpec, AttachedArena

__all__ = [
    "POOL_KERNELS",
    "ProcessPool",
    "TaskResult",
    "WorkerCrashError",
    "pool_kernel",
    "worker_context",
]

#: Registry of kernels workers can execute, by name.  Populated by
#: :func:`pool_kernel` at import time of the defining module — the pool
#: ships *module import paths* to workers, never code objects.
POOL_KERNELS: Dict[str, Callable] = {}

#: Default liveness-poll interval while waiting on the completion queue.
_POLL_SECONDS = 0.05


class WorkerCrashError(RuntimeError):
    """A worker process died while tasks were outstanding."""


def pool_kernel(name: str) -> Callable[[Callable], Callable]:
    """Register a module-level function as a pool kernel.

    The kernel is called as ``fn(ctx, **payload)`` where ``ctx`` is the
    :class:`WorkerContext` (worker id + attached arena).  Its
    return value must be cheap to pickle (scalars / small tuples) — bulk
    output belongs in shared arrays.
    """

    def decorate(fn: Callable) -> Callable:
        POOL_KERNELS[name] = fn
        return fn

    return decorate


class WorkerContext:
    """What a kernel sees: its worker id and the attached arena."""

    def __init__(self, worker_id: int, num_workers: int) -> None:
        self.worker_id = worker_id
        self.num_workers = num_workers
        self.arena: Optional[AttachedArena] = None

    def __getitem__(self, key: str):
        if self.arena is None:
            raise KeyError(f"no arena bound (requested {key!r})")
        return self.arena[key]


#: Module-global context inside a worker process (one per interpreter).
_WORKER_CTX: Optional[WorkerContext] = None


def worker_context() -> WorkerContext:
    """The executing worker's context (kernels may call this)."""
    if _WORKER_CTX is None:
        raise RuntimeError("worker_context() outside a pool worker")
    return _WORKER_CTX


class TaskResult:
    """Completion token for one task."""

    __slots__ = ("index", "value", "worker_id", "start", "end")

    def __init__(self, index, value, worker_id, start, end):
        self.index = index
        self.value = value
        self.worker_id = worker_id
        self.start = start
        self.end = end

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _sync(barrier) -> None:
    """Pass the control barrier; tolerate it breaking on a crash path."""
    try:
        barrier.wait(timeout=60.0)
    except threading.BrokenBarrierError:  # pragma: no cover - crash path
        pass


def _worker_main(
    worker_id: int,
    num_workers: int,
    kernel_modules: Sequence[str],
    task_queue,
    done_queue,
    barrier=None,
) -> None:
    """Worker loop: bind/release arenas, execute named kernels.

    Control messages ("bind"/"release") are broadcast as one queue entry
    per worker; after handling one, the worker waits on a real
    ``multiprocessing.Barrier`` so a fast worker cannot also consume a
    sibling's copy while that sibling is still attaching.
    """
    global _WORKER_CTX
    ctx = WorkerContext(worker_id, num_workers)
    _WORKER_CTX = ctx
    for module in kernel_modules:
        importlib.import_module(module)
    try:
        while True:
            msg = task_queue.get()
            if msg is None:
                break
            kind = msg[0]
            if kind == "bind":
                spec: ArenaSpec = msg[1]
                if ctx.arena is not None:
                    ctx.arena.close()
                ctx.arena = AttachedArena(spec)
                done_queue.put(("bound", worker_id))
                _sync(barrier)
            elif kind == "release":
                if ctx.arena is not None:
                    ctx.arena.close()
                    ctx.arena = None
                done_queue.put(("released", worker_id))
                _sync(barrier)
            elif kind == "task":
                _, index, kernel, payload = msg
                t0 = time.perf_counter()
                try:
                    value = POOL_KERNELS[kernel](ctx, **payload)
                except BaseException as exc:
                    done_queue.put(("error", worker_id, index,
                                    f"{type(exc).__name__}: {exc}"))
                    continue
                t1 = time.perf_counter()
                done_queue.put(("done", worker_id, index, value, t0, t1))
            # Unknown kinds are dropped silently: forward compatibility.
    finally:
        if ctx.arena is not None:
            ctx.arena.close()


class ProcessPool:
    """A persistent pool of worker processes executing registered kernels.

    Parameters
    ----------
    num_workers:
        Worker-process count (the engine's real parallel width).
    kernel_modules:
        Import paths whose module-level :func:`pool_kernel` registrations
        the workers need.  Imported inside each worker at startup, so
        spawn-started workers resolve the same kernels fork-started ones
        inherit.
    context:
        ``multiprocessing`` start method; default ``fork`` where
        available (fastest, Linux) else ``spawn``.
    seed:
        Seed for the deterministic task dispatch order.
    memory:
        A :class:`~repro.observability.memtrack.MemoryLedger`; each
        :meth:`bind` records the spec's segment bytes × worker count as
        a *physical* attach (worker mappings share pages — they are not
        logical allocations, so the logical report stays invariant).
    """

    #: Kernel modules every pool loads (the engine kernels).
    DEFAULT_KERNEL_MODULES = ("repro.core.proc_kernels",)

    def __init__(
        self,
        num_workers: int,
        *,
        kernel_modules: Sequence[str] | None = None,
        context: str | None = None,
        seed: int = 12345,
        memory=None,
    ) -> None:
        if num_workers < 1:
            raise ConfigError("num_workers must be >= 1")
        if context is None:
            context = ("fork" if "fork" in mp.get_all_start_methods()
                       else "spawn")
        self.num_workers = int(num_workers)
        self.kernel_modules = tuple(
            kernel_modules if kernel_modules is not None
            else self.DEFAULT_KERNEL_MODULES)
        self._ctx = mp.get_context(context)
        self._order_rng = Xorshift32(seed)
        self._tasks = self._ctx.Queue()
        self._done = self._ctx.Queue()
        #: Real cross-process barrier serializing control broadcasts: every
        #: worker must handle exactly one copy of a bind/release message.
        self.barrier = self._ctx.Barrier(self.num_workers)
        self._workers: List = []
        self._closed = False
        self._bound = False
        self.memory = memory
        self.tasks_dispatched = 0
        self.epoch = time.perf_counter()

    # -- lifecycle ---------------------------------------------------------

    def _ensure_started(self) -> None:
        if self._closed:
            raise ValueError("pool is closed")
        if self._workers:
            return
        for w in range(self.num_workers):
            p = self._ctx.Process(
                target=_worker_main,
                args=(w, self.num_workers, self.kernel_modules,
                      self._tasks, self._done, self.barrier),
                daemon=True,
                name=f"repro-worker-{w}",
            )
            p.start()
            self._workers.append(p)

    def alive(self) -> bool:
        """True when every started worker is still running."""
        return bool(self._workers) and all(p.is_alive() for p in self._workers)

    def close(self) -> None:
        """Stop the workers; idempotent."""
        if self._closed:
            return
        self._closed = True
        for _ in self._workers:
            try:
                self._tasks.put(None)
            except (ValueError, OSError):  # pragma: no cover - queue gone
                break
        deadline = time.monotonic() + 5.0
        for p in self._workers:
            p.join(timeout=max(0.0, deadline - time.monotonic()))
        for p in self._workers:
            if p.is_alive():
                p.terminate()
                p.join(timeout=1.0)
        self._workers.clear()
        for q in (self._tasks, self._done):
            try:
                q.close()
                q.join_thread()
            except (ValueError, OSError):  # pragma: no cover
                pass

    def terminate(self) -> None:
        """Kill the workers immediately (crash path); idempotent."""
        self._closed = True
        for p in self._workers:
            if p.is_alive():
                p.terminate()
        for p in self._workers:
            p.join(timeout=1.0)
        self._workers.clear()

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC backstop
        try:
            self.terminate()
        except Exception:
            pass

    # -- barriers ----------------------------------------------------------

    def _drain(self, expect: str, count: int, *, timeout: float = 60.0):
        """Collect ``count`` tokens of kind ``expect``; poll liveness."""
        results = []
        deadline = time.monotonic() + timeout
        while len(results) < count:
            try:
                msg = self._done.get(timeout=_POLL_SECONDS)
            except queue_mod.Empty:
                if not self.alive():
                    self.terminate()
                    raise WorkerCrashError(
                        "worker process died while "
                        f"{count - len(results)} task(s) outstanding"
                    ) from None
                if time.monotonic() > deadline:
                    self.terminate()
                    raise WorkerCrashError(
                        f"pool barrier timed out after {timeout:.0f}s"
                    ) from None
                continue
            if msg[0] == "error":
                _, worker_id, index, text = msg
                self.terminate()
                raise WorkerCrashError(
                    f"task {index} failed on worker {worker_id}: {text}")
            if msg[0] != expect:  # pragma: no cover - stale token
                continue
            results.append(msg)
        return results

    # -- API ---------------------------------------------------------------

    def bind(self, spec: ArenaSpec, *, timeout: float = 60.0) -> None:
        """Broadcast an arena to every worker and barrier on attachment."""
        self._ensure_started()
        for _ in self._workers:
            self._tasks.put(("bind", spec))
        self._drain("bound", len(self._workers), timeout=timeout)
        self._bound = True
        memory = self.memory
        if memory is not None and memory.enabled:
            # Worker mappings of the owner's segments: physical-only
            # accounting (the pages are shared; the owner's ShmArena
            # already recorded the logical allocation events).
            nbytes = sum(
                max(int(np.prod(shape)) * np.dtype(dtype).itemsize, 1)
                for (_, shape, dtype) in spec.values())
            memory.attach("procpool", "arena_map", nbytes,
                          replicas=self.num_workers)

    def release(self, *, timeout: float = 60.0) -> None:
        """Detach the bound arena everywhere (before the owner unlinks)."""
        if not self._bound or not self._workers or self._closed:
            self._bound = False
            return
        for _ in self._workers:
            self._tasks.put(("release", None))
        self._drain("released", len(self._workers), timeout=timeout)
        self._bound = False

    def run(
        self,
        kernel: str,
        payloads: Sequence[dict],
        *,
        timeout: float = 600.0,
    ) -> List[TaskResult]:
        """Execute ``kernel`` once per payload; barrier until all done.

        Tasks are enqueued in a seeded deterministic permutation (the
        dispatch-order analogue of OpenMP's dynamic chunk hand-out);
        results are returned sorted by task index.  Raises
        :class:`WorkerCrashError` if a worker dies or a kernel raises.
        """
        self._ensure_started()
        n = len(payloads)
        if n == 0:
            return []
        order = seeded_chunk_order(n, self._order_rng.next_uint32())
        for i in order:
            self._tasks.put(("task", int(i), kernel, payloads[int(i)]))
        self.tasks_dispatched += n
        tokens = self._drain("done", n, timeout=timeout)
        results = [
            TaskResult(index, value, worker_id,
                       start - self.epoch, end - self.epoch)
            for (_, worker_id, index, value, start, end) in tokens
        ]
        results.sort(key=lambda r: r.index)
        return results

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else (
            "running" if self._workers else "cold")
        return f"ProcessPool(workers={self.num_workers}, {state})"
