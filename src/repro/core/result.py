"""Result types returned by :func:`repro.core.leiden.leiden`."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.core.dendrogram import Dendrogram
from repro.metrics.partition import count_communities
from repro.parallel.simthread import WorkLedger

#: Phase tags used across the library (Figure 7's split).
PHASE_LOCAL_MOVE = "local_move"
PHASE_REFINE = "refine"
PHASE_AGGREGATE = "aggregate"
PHASE_OTHER = "other"
ALL_PHASES = (PHASE_LOCAL_MOVE, PHASE_REFINE, PHASE_AGGREGATE, PHASE_OTHER)


@dataclass
class PassStats:
    """Per-pass accounting (Figure 7(b) pass split)."""

    index: int
    num_vertices: int
    num_communities: int
    move_iterations: int
    refine_moves: int
    #: On a pass that aggregates — every pass but one that ends the loop
    #: converged or on low shrink, so also the last pass of a budget
    #: exit — the τ the next pass starts with; on a converged or
    #: low-shrink final pass, that pass's own τ.
    tolerance: float
    #: Wall-clock seconds per phase for this pass.
    wall_phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Work-ledger regions recorded during this pass only.
    ledger: WorkLedger = field(default_factory=WorkLedger)

    @property
    def wall_seconds(self) -> float:
        return sum(self.wall_phase_seconds.values())


@dataclass
class LeidenResult:
    """Communities plus full per-phase / per-pass instrumentation."""

    #: Final community id per original vertex (compact ids).
    membership: np.ndarray
    #: Per-pass community mappings.
    dendrogram: Dendrogram
    #: Per-pass statistics, in execution order.
    passes: List[PassStats]
    #: Work ledger of the whole run (all passes merged).
    ledger: WorkLedger
    #: Total wall-clock seconds (Python execution — *not* modelled time).
    wall_seconds: float
    #: Wall-clock seconds per phase, summed over passes.
    wall_phase_seconds: Dict[str, float]

    @property
    def num_passes(self) -> int:
        return len(self.passes)

    @property
    def num_communities(self) -> int:
        """|Γ| of the final membership (Table 2's last column)."""
        return count_communities(self.membership)

    def modeled_time(self, machine, num_threads: int):
        """Modelled runtime on ``machine`` at ``num_threads`` threads."""
        return self.ledger.simulate(machine, num_threads)

    def membership_at_pass(self, pass_index: int) -> np.ndarray:
        """Original-vertex membership after pass ``pass_index``.

        Exposes the community hierarchy: pass 0 is the finest level the
        algorithm committed, the last pass equals ``membership`` (up to
        renumbering).  Negative indices count from the end.
        """
        levels = self.dendrogram.num_levels
        if pass_index < 0:
            pass_index += levels
        if not 0 <= pass_index < levels:
            raise IndexError(
                f"pass {pass_index} out of range for {levels} levels"
            )
        return self.dendrogram.flatten(upto=pass_index + 1)

    def hierarchy(self) -> List[np.ndarray]:
        """All levels of the community hierarchy, finest to coarsest."""
        return self.dendrogram.memberships()

    def phase_fractions_wall(self) -> Dict[str, float]:
        """Wall-clock phase split, normalized (Figure 7(a))."""
        total = sum(self.wall_phase_seconds.values())
        if total <= 0:
            return {p: 0.0 for p in self.wall_phase_seconds}
        return {p: s / total for p, s in self.wall_phase_seconds.items()}

    def pass_fractions_wall(self) -> List[float]:
        """Wall-clock pass split, normalized (Figure 7(b))."""
        totals = [p.wall_seconds for p in self.passes]
        s = sum(totals)
        return [t / s for t in totals] if s > 0 else [0.0] * len(totals)
