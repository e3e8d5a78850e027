"""Shared-memory numpy arenas for the process-parallel executor.

The process engine's whole premise is *zero-copy* state sharing: the CSR
arrays, membership, community weights and per-batch outputs live in
:mod:`multiprocessing.shared_memory` segments, and every worker process
maps numpy views onto the same physical pages.  Task messages then carry
only chunk bounds and scalar parameters — never array payloads.

Two classes implement the owner/attacher split:

- :class:`ShmArena` (parent side) allocates named segments, exposes them
  as numpy arrays, and owns the unlink;
- :class:`AttachedArena` (worker side) maps an arena from its pickled
  :meth:`~ShmArena.spec` and only ever closes its local mapping.

Lifecycle discipline is the hard part on CPython < 3.13: attaching to an
existing segment re-registers it with the global
:mod:`multiprocessing.resource_tracker`, which then (a) warns about
"leaked" segments at interpreter shutdown and (b) may unlink segments the
parent still owns.  :func:`attach_array` therefore unregisters the
attached segment from the worker's tracker immediately — the parent
remains the single tracked owner.  Both close paths are idempotent
(double ``close``/``unlink`` is a no-op), and ``__del__`` backstops
leaked arenas so a crashed caller cannot strand segments past garbage
collection.
"""

from __future__ import annotations

import secrets
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Iterator, Tuple

import numpy as np

__all__ = [
    "ArenaSpec",
    "AttachedArena",
    "ShmArena",
    "attach_array",
]

#: Pickled arena description: ``key -> (segment_name, shape, dtype_str)``.
ArenaSpec = Dict[str, Tuple[str, Tuple[int, ...], str]]


def attach_array(
    name: str, shape: Tuple[int, ...], dtype: str
) -> Tuple[np.ndarray, shared_memory.SharedMemory]:
    """Map an existing segment as a numpy array (worker side).

    CPython < 3.13 registers a segment with the resource tracker on
    *attach* as well as on create.  That double tracking is what
    produces the spurious ``leaked shared_memory objects`` warnings and
    — worse — a spawn-started worker's tracker unlinking segments the
    parent still owns at worker exit.  The creating process is the
    single owner here, so registration is suppressed for the duration
    of the attach (the equivalent of 3.13's ``track=False``).
    """
    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        seg = shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register
    arr = np.ndarray(shape, dtype=np.dtype(dtype), buffer=seg.buf)
    return arr, seg


class ShmArena:
    """A named family of shared-memory numpy arrays (owner side).

    Use as a context manager — ``__exit__`` closes *and unlinks* every
    segment, so worker crashes or a ``KeyboardInterrupt`` in the parent
    cannot leak kernel-state segments::

        with ShmArena() as arena:
            C = arena.from_array("membership", membership)
            ...  # dispatch tasks referencing arena.spec()

    Segment names carry a short random tag so concurrent arenas (test
    processes, parallel benches) never collide.

    Parameters
    ----------
    tag:
        Segment-name tag; random when omitted.
    memory:
        A :class:`~repro.observability.memtrack.MemoryLedger` the arena
        records its segments to (``None`` disables recording).  Segment
        bytes are logical-ledger events.
    phase:
        Phase label the arena's allocation events carry.
    """

    def __init__(self, tag: str | None = None, *, memory=None,
                 phase: str = "other") -> None:
        self._tag = tag if tag is not None else secrets.token_hex(4)
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._arrays: Dict[str, np.ndarray] = {}
        self._spec: ArenaSpec = {}
        self._closed = False
        self._unlinked = False
        self._memory = memory
        self._phase = phase
        self._mem_handles: Dict[str, int] = {}

    # -- allocation --------------------------------------------------------

    def create(self, key: str, shape, dtype) -> np.ndarray:
        """Allocate a zero-initialized array under ``key``."""
        if self._closed:
            raise ValueError("arena is closed")
        if key in self._segments:
            raise ValueError(f"arena already holds {key!r}")
        shape = tuple(int(s) for s in np.atleast_1d(np.asarray(shape, dtype=np.int64)))
        dt = np.dtype(dtype)
        nbytes = max(int(np.prod(shape)) * dt.itemsize, 1)
        seg = shared_memory.SharedMemory(
            create=True, size=nbytes, name=f"repro_{self._tag}_{key}"
        )
        arr = np.ndarray(shape, dtype=dt, buffer=seg.buf)
        arr[...] = np.zeros((), dtype=dt)
        self._segments[key] = seg
        self._arrays[key] = arr
        self._spec[key] = (seg.name, shape, dt.str)
        memory = self._memory
        if memory is not None and memory.enabled:
            self._mem_handles[key] = memory.alloc(
                "shm", key, nbytes, phase=self._phase, dtype=dt.name)
        return arr

    def from_array(self, key: str, source: np.ndarray) -> np.ndarray:
        """Allocate ``key`` shaped like ``source`` and copy it in."""
        src = np.ascontiguousarray(source)
        arr = self.create(key, src.shape, src.dtype)
        arr[...] = src
        return arr

    # -- access ------------------------------------------------------------

    def __getitem__(self, key: str) -> np.ndarray:
        return self._arrays[key]

    def __contains__(self, key: str) -> bool:
        return key in self._arrays

    def keys(self) -> Iterator[str]:
        return iter(self._arrays)

    def spec(self) -> ArenaSpec:
        """The pickle-friendly description workers attach from."""
        return dict(self._spec)

    @property
    def nbytes(self) -> int:
        """Total bytes across all segments (capacity accounting)."""
        return sum(seg.size for seg in self._segments.values())

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Drop the parent's mappings; idempotent."""
        if self._closed:
            return
        self._closed = True
        # Views must be released before the mmap can close.
        self._arrays.clear()
        for seg in self._segments.values():
            try:
                seg.close()
            except BufferError:  # pragma: no cover - exported view alive
                pass

    def unlink(self) -> None:
        """Destroy the segments; idempotent, implies :meth:`close`."""
        self.close()
        if self._unlinked:
            return
        self._unlinked = True
        for seg in self._segments.values():
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        memory = self._memory
        if memory is not None and memory.enabled:
            for handle in self._mem_handles.values():
                memory.free(handle)
            self._mem_handles.clear()

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc) -> None:
        self.unlink()

    def __del__(self) -> None:  # pragma: no cover - GC backstop
        try:
            self.unlink()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "unlinked" if self._unlinked else (
            "closed" if self._closed else "open")
        return (f"ShmArena(tag={self._tag!r}, arrays={len(self._spec)}, "
                f"{state})")


class AttachedArena:
    """Worker-side view of a parent's :class:`ShmArena`.

    Attaches every segment named by ``spec`` and exposes the arrays by
    key.  :meth:`close` releases the local mappings only — unlinking is
    the owner's job.  Idempotent like the owner side.
    """

    def __init__(self, spec: ArenaSpec) -> None:
        self._arrays: Dict[str, np.ndarray] = {}
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._closed = False
        try:
            for key, (name, shape, dtype) in spec.items():
                arr, seg = attach_array(name, tuple(shape), dtype)
                self._arrays[key] = arr
                self._segments[key] = seg
        except Exception:
            self.close()
            raise

    def __getitem__(self, key: str) -> np.ndarray:
        return self._arrays[key]

    def __contains__(self, key: str) -> bool:
        return key in self._arrays

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._arrays.clear()
        for seg in self._segments.values():
            try:
                seg.close()
            except BufferError:  # pragma: no cover - view still exported
                pass

    def __enter__(self) -> "AttachedArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC backstop
        try:
            self.close()
        except Exception:
            pass
