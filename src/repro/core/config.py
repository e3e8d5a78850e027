"""Configuration for GVE-Leiden / GVE-Louvain.

Defaults follow Section 4.1 of the paper: initial iteration tolerance
``0.01``, tolerance drop rate ``10`` (threshold scaling), aggregation
tolerance ``0.8``, at most ``20`` iterations per pass and ``10`` passes,
greedy refinement, move-based super-vertex labels, OpenMP-style dynamic
scheduling with flag-based vertex pruning.

The paper's variant ladder (Figures 1 and 2):

- ``default`` — all optimizations on;
- ``medium``  — threshold scaling disabled (every pass runs at the strict
  tolerance, so the early passes iterate much longer);
- ``heavy``   — additionally the aggregation tolerance is disabled (the
  algorithm keeps aggregating even when communities barely shrink).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.errors import ConfigError

_REFINEMENTS = ("greedy", "random")
_LABELS = ("move", "refine")
_ENGINES = ("batch", "loop", "process")
_VARIANTS = ("default", "medium", "heavy")


@dataclass(frozen=True)
class LeidenConfig:
    """All tunables of the GVE-Leiden algorithm."""

    #: Initial per-iteration convergence tolerance τ on the summed ΔQ.
    tolerance: float = 0.01
    #: Threshold-scaling divisor applied to τ after every pass.
    tolerance_drop: float = 10.0
    #: τ used throughout when threshold scaling is disabled.
    strict_tolerance: float = 1e-6
    #: Enable threshold scaling (the *medium*/*heavy* variants disable it).
    threshold_scaling: bool = True
    #: Stop when |Γ_new| / |Γ_old| exceeds this after refinement
    #: (``None`` disables the check — the *heavy* variant).
    aggregation_tolerance: float | None = 0.8
    #: Cap on local-moving iterations per pass.
    max_iterations: int = 20
    #: Cap on passes.
    max_passes: int = 10
    #: Refinement style: ``"greedy"`` (argmax ΔQ) or ``"random"``
    #: (probability ∝ ΔQ, via xorshift32 Gumbel-max).
    refinement: str = "greedy"
    #: Super-vertex community labels: ``"move"`` (local-moving phase,
    #: Traag-recommended) or ``"refine"``.
    vertex_label: str = "move"
    #: Modularity resolution γ.
    resolution: float = 1.0
    #: Quality function to optimize: ``"modularity"`` (the paper's) or
    #: ``"cpm"`` — the Constant Potts Model, the resolution-limit-free
    #: alternative the paper points to (Traag et al. 2011).
    quality: str = "modularity"
    #: Kernel engine: ``"batch"`` (vectorized, batch-asynchronous — the
    #: production path), ``"loop"`` (per-vertex, exact sequential
    #: semantics with per-thread hashtables — the reference path) or
    #: ``"process"`` (worker *processes* over shared-memory arenas — the
    #: only engine that sidesteps the GIL; local-moving fans out to the
    #: pool, the remaining phases run the batch path, and membership is
    #: bitwise-identical to ``"batch"`` at any worker count).
    engine: str = "batch"
    #: Vertices concurrently in flight per batch (models the set of
    #: vertices the OpenMP threads process concurrently).
    batch_size: int = 4096
    #: Seed for the xorshift32 generators.
    seed: int = 42
    #: Run the refinement phase at all (False = GVE-Louvain).
    use_refinement: bool = True
    #: Flag-based vertex pruning in the local-moving phase (the paper's
    #: optimization over queue-based pruning); disable for ablations.
    vertex_pruning: bool = True
    #: Refinement move guard: ``"cas"`` (GVE's isolation + CAS — the
    #: connectivity guarantee), ``"racy"`` (isolation, no commit
    #: serialization — cuGraph-like), ``"none"`` (unguarded —
    #: NetworKit-like).  Only the batch engine honours non-default values.
    refine_guard: str = "cas"

    def __post_init__(self) -> None:
        # isfinite first: every comparison with NaN is false, so a bare
        # bound check would let NaN (and inf) through.
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0):
            raise ConfigError("tolerance must be finite and non-negative")
        if not (math.isfinite(self.tolerance_drop)
                and self.tolerance_drop > 1):
            raise ConfigError("tolerance_drop must be finite and exceed 1")
        if not (math.isfinite(self.strict_tolerance)
                and self.strict_tolerance >= 0):
            raise ConfigError(
                "strict_tolerance must be finite and non-negative")
        if self.aggregation_tolerance is not None and not (
            0 < self.aggregation_tolerance <= 1
        ):
            raise ConfigError("aggregation_tolerance must be in (0, 1]")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if self.max_passes < 1:
            raise ConfigError("max_passes must be >= 1")
        if self.refinement not in _REFINEMENTS:
            raise ConfigError(f"refinement must be one of {_REFINEMENTS}")
        if self.vertex_label not in _LABELS:
            raise ConfigError(f"vertex_label must be one of {_LABELS}")
        if self.engine not in _ENGINES:
            raise ConfigError(f"engine must be one of {_ENGINES}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.refine_guard not in ("cas", "racy", "none"):
            raise ConfigError("refine_guard must be 'cas', 'racy' or 'none'")
        if self.quality not in ("modularity", "cpm"):
            raise ConfigError("quality must be 'modularity' or 'cpm'")
        if not (math.isfinite(self.resolution) and self.resolution > 0):
            raise ConfigError("resolution must be finite and positive")

    # -- variants -----------------------------------------------------------

    @classmethod
    def variant(cls, name: str, **overrides) -> "LeidenConfig":
        """One of the paper's variants: ``default``, ``medium``, ``heavy``."""
        if name not in _VARIANTS:
            raise ConfigError(f"variant must be one of {_VARIANTS}")
        cfg = cls(**overrides)
        if name == "medium":
            cfg = replace(cfg, threshold_scaling=False)
        elif name == "heavy":
            cfg = replace(cfg, threshold_scaling=False, aggregation_tolerance=None)
        return cfg

    def initial_tolerance(self) -> float:
        """τ for the first pass given the threshold-scaling setting."""
        return self.tolerance if self.threshold_scaling else self.strict_tolerance

    def next_tolerance(self, tau: float) -> float:
        """τ for the following pass (Algorithm 1, line 15)."""
        if not self.threshold_scaling:
            return tau
        return tau / self.tolerance_drop

    def with_(self, **overrides) -> "LeidenConfig":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)
