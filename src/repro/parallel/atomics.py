"""Atomic-operation emulation with accounting.

In the OpenMP implementation, community weights ``Σ'`` are updated with
atomic adds, and the refinement phase guards moves with a compare-and-swap
(Algorithm 3).  Executed serially these are ordinary array operations;
what matters for the reproduction is (a) preserving the exact
success/failure semantics of the CAS and (b) *counting* the atomics so
the machine model can charge for them.

:class:`AtomicArray` is the in-process variant: phases running in the
calling process execute their regions serially, so it takes no lock.
:class:`SharedAtomicArray` is the process-engine variant: the values
live in a :class:`~repro.parallel.shm.ShmArena` segment mapped by every
worker, and each operation holds a real ``multiprocessing.Lock`` — genuine
cross-process atomicity, the same structure OpenMP's ``atomic``/
``critical`` pair provides.  The op count also lives in shared memory so
the parent can fold worker-side atomics into the cost-model ledger after
a barrier.
"""

from __future__ import annotations

import numpy as np


class AtomicArray:
    """A float64 array with atomic add / CAS and an operation counter."""

    __slots__ = ("values", "op_count")

    def __init__(self, values: np.ndarray) -> None:
        self.values = np.asarray(values, dtype=np.float64)
        self.op_count = 0

    def __len__(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, idx):
        return self.values[idx]

    def load(self, idx: int) -> float:
        return float(self.values[idx])

    def add(self, idx: int, delta: float) -> float:
        """Atomic ``values[idx] += delta``; returns the new value."""
        self.values[idx] += delta
        self.op_count += 1
        return float(self.values[idx])

    def add_many(self, idx: np.ndarray, deltas) -> None:
        """Batch of atomic adds (duplicate indices accumulate, as atomics do)."""
        idx = np.asarray(idx)
        np.add.at(self.values, idx, deltas)
        self.op_count += int(idx.shape[0])

    def compare_and_swap(self, idx: int, expected: float, new: float) -> float:
        """Atomic CAS: if ``values[idx] == expected`` store ``new``.

        Returns the value observed *before* the operation (Algorithm 3's
        ``atomicCAS`` convention: success iff the return equals
        ``expected``).
        """
        old = float(self.values[idx])
        self.op_count += 1
        if old == expected:
            self.values[idx] = new
        return old


class SharedAtomicArray:
    """A float64 array in shared memory with *cross-process* atomic ops.

    Construction is two-sided, mirroring the arena's owner/attacher
    split:

    - the parent calls :meth:`create`, which places ``values`` (and a
      one-slot op counter) in the given arena and allocates a real
      ``multiprocessing.Lock``;
    - workers rebuild the wrapper from ``(arena_key, lock)`` against the
      arena views they attached — same pages, same lock.

    Each ``add``/``compare_and_swap`` holds the lock across the
    read-modify-write, which is exactly what an OpenMP ``critical``
    provides (and what ``atomic`` compiles to on contended cache lines).
    The op counter is itself shared so the parent can charge worker-side
    atomics to the machine model after a barrier.
    """

    __slots__ = ("values", "_ops", "_lock")

    #: Arena-key suffix under which the op counter is stored.
    OPS_SUFFIX = "__ops"

    def __init__(self, values: np.ndarray, ops: np.ndarray, lock) -> None:
        self.values = values
        self._ops = ops
        self._lock = lock

    @classmethod
    def create(cls, arena, key: str, source: np.ndarray, ctx):
        """Parent side: copy ``source`` into ``arena`` under ``key``."""
        values = arena.from_array(key, np.asarray(source, dtype=np.float64))
        ops = arena.create(key + cls.OPS_SUFFIX, (1,), np.float64)
        return cls(values, ops, ctx.Lock())

    @classmethod
    def attach(cls, arena, key: str, lock) -> "SharedAtomicArray":
        """Worker side: wrap the already-attached arena views."""
        return cls(arena[key], arena[key + cls.OPS_SUFFIX], lock)

    def __len__(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, idx):
        return self.values[idx]

    @property
    def op_count(self) -> int:
        return int(self._ops[0])

    def load(self, idx: int) -> float:
        with self._lock:
            return float(self.values[idx])

    def add(self, idx: int, delta: float) -> float:
        """Cross-process atomic ``values[idx] += delta``."""
        with self._lock:
            self.values[idx] += delta
            self._ops[0] += 1
            return float(self.values[idx])

    def add_many(self, idx: np.ndarray, deltas) -> None:
        """One critical section covering a batch of adds."""
        idx = np.asarray(idx)
        with self._lock:
            np.add.at(self.values, idx, deltas)
            self._ops[0] += idx.shape[0]

    def compare_and_swap(self, idx: int, expected: float, new: float) -> float:
        """Cross-process CAS; returns the value observed before."""
        with self._lock:
            old = float(self.values[idx])
            self._ops[0] += 1
            if old == expected:
                self.values[idx] = new
            return old
