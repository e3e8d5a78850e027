"""Atomic-operation emulation with accounting.

In the OpenMP implementation, community weights ``Σ'`` are updated with
atomic adds, and the refinement phase guards moves with a compare-and-swap
(Algorithm 3).  Executed serially these are ordinary array operations;
what matters for the reproduction is (a) preserving the exact
success/failure semantics of the CAS and (b) *counting* the atomics so
the machine model can charge for them.

:class:`AtomicArray` runs in the calling process, whose regions execute
serially, so it takes no lock.  The ``process`` engine needs no
cross-process atomics either: its workers only read Σ' and write their
own chunk of the outputs, and the parent applies every Σ' update between
batch barriers.
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
