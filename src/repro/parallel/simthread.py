"""Work ledger: records every parallel region for later time modelling.

Real thread scaling is unobservable in pure Python (GIL + this container
has one core), so the runtime instead *records* what the OpenMP
implementation would execute: for every parallel region, the per-chunk
work (in abstract work units — edge scans, hashtable updates, writes);
for every sequential step, its work.  A single execution of the algorithm
then yields modelled runtimes for *any* thread count via
:meth:`WorkLedger.simulate`, which is how the strong-scaling experiment
(Figure 9) is reproduced.

Work units are deliberately machine-independent; the
:class:`repro.parallel.costmodel.MachineModel` converts them to seconds.

A region's items are summed into schedule-sized chunks as they are
recorded, with one ``reduceat``: integer item costs (vertex degrees) in
int64, float costs in float64.  A constant per-item cost is added per
chunk, and a region whose items all cost the same is given as a count,
so no per-item float64 array is built.  Every cost the phases record is
an integer or a multiple of 2⁻⁴, so these chunk sums equal the float64
sums of the per-item costs bit for bit, in any order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

import numpy as np

from repro.parallel.schedule import DEFAULT_CHUNK, Schedule, makespan

#: Cap on stored chunks per region; beyond this, chunks are re-aggregated.
_MAX_CHUNKS = 16384

#: The schedule of a region recorded without one: OpenMP ``dynamic`` with
#: the paper's chunk size.
_DYNAMIC = Schedule("dynamic", DEFAULT_CHUNK)


@dataclass
class Region:
    """One recorded execution region.

    ``kind`` is ``"parallel"`` or ``"serial"``.  For parallel regions
    ``chunk_costs`` holds per-chunk work; for serial regions it is a
    single-element array.
    """

    kind: str
    phase: str
    chunk_costs: np.ndarray
    schedule: Schedule = field(default_factory=Schedule)
    atomics: float = 0.0

    @property
    def total_work(self) -> float:
        return float(self.chunk_costs.sum()) + self.atomics


class WorkLedger:
    """Accumulates :class:`Region` records during one algorithm run."""

    def __init__(self) -> None:
        self.regions: List[Region] = []

    # -- recording ---------------------------------------------------------

    def parallel(
        self,
        item_costs,
        *,
        phase: str,
        schedule: Schedule | None = None,
        atomics: float = 0.0,
        per_item: float = 0.0,
    ) -> None:
        """Record a parallel-for whose items cost ``item_costs`` work units.

        ``item_costs`` is an array of per-item costs, or an int: the
        number of items of a region where each costs only ``per_item``,
        which must then be nonzero.  ``per_item`` is added to every
        item's cost.  Items are pre-aggregated into schedule-sized
        chunks, so ledger memory stays bounded even for million-vertex
        loops.
        """
        if schedule is None:
            schedule = _DYNAMIC
        if isinstance(item_costs, (int, np.integer)):
            if not per_item:
                raise ValueError(
                    "a region given as an item count needs a per_item cost")
            costs, num = None, int(item_costs)
        else:
            costs = np.asarray(item_costs).ravel()
            num = costs.shape[0]
        if num <= 0:
            return
        chunk = schedule.chunk
        if num > _MAX_CHUNKS * chunk:
            chunk = (num + _MAX_CHUNKS - 1) // _MAX_CHUNKS
        n_chunks = (num + chunk - 1) // chunk
        chunk_costs = np.full(n_chunks, chunk * float(per_item))
        chunk_costs[-1] = (num - (n_chunks - 1) * chunk) * float(per_item)
        if costs is not None:
            chunk_costs += np.add.reduceat(
                costs, np.arange(0, num, chunk),
                dtype=np.int64 if np.issubdtype(costs.dtype, np.integer)
                else np.float64)
        self.regions.append(
            Region("parallel", phase, chunk_costs, schedule, float(atomics))
        )

    def serial(self, cost: float, *, phase: str) -> None:
        """Record sequential work of ``cost`` units."""
        if cost <= 0:
            return
        self.regions.append(
            Region("serial", phase, np.asarray([float(cost)]))
        )

    def merge(self, other: "WorkLedger") -> None:
        """Append all regions of ``other`` (sub-phase composition)."""
        self.regions.extend(other.regions)

    def clear(self) -> None:
        self.regions.clear()

    # -- inspection ----------------------------------------------------------

    @property
    def total_work(self) -> float:
        """Sum of all recorded work units (serial + parallel + atomics)."""
        return sum(r.total_work for r in self.regions)

    def work_by_phase(self) -> Dict[str, float]:
        """Total work units per phase tag."""
        out: Dict[str, float] = {}
        for r in self.regions:
            out[r.phase] = out.get(r.phase, 0.0) + r.total_work
        return out

    def phases(self) -> List[str]:
        """Phase tags in first-appearance order."""
        seen: List[str] = []
        for r in self.regions:
            if r.phase not in seen:
                seen.append(r.phase)
        return seen

    # -- modelling -------------------------------------------------------------

    def simulate(
        self, machine, num_threads: int, *, work_scale: float = 1.0
    ) -> "SimulatedTime":
        """Modelled runtime at ``num_threads`` threads under ``machine``.

        Serial regions run on one core; parallel regions pay scheduler
        overhead per chunk, memory contention, SMT and NUMA effects as
        defined by the machine model.

        ``work_scale`` models the same execution on a ``work_scale``-times
        larger input: every region has proportionally more chunks of the
        same per-chunk cost (and proportionally more atomics), while
        per-region fixed costs (barriers) stay constant.  This is how the
        registry stand-ins are extrapolated to the paper-scale graphs.
        """
        phase_seconds: Dict[str, float] = {}
        total = 0.0
        for region in self.regions:
            if region.kind == "serial":
                seconds = (
                    float(region.chunk_costs[0]) * work_scale
                    * machine.time_per_unit
                )
            else:
                span = self._region_span(
                    region, machine, num_threads, work_scale
                )
                slowdown = machine.parallel_slowdown(num_threads)
                seconds = span * machine.time_per_unit * slowdown
                # Atomics execute on the worker threads: distribute them,
                # with the same contention/NUMA slowdown as regular work.
                seconds += (
                    region.atomics * work_scale * machine.atomic_seconds
                    * slowdown / max(1, num_threads)
                )
                seconds += machine.barrier_seconds(num_threads)
            phase_seconds[region.phase] = (
                phase_seconds.get(region.phase, 0.0) + seconds
            )
            total += seconds
        return SimulatedTime(total, phase_seconds, num_threads)

    @staticmethod
    def _region_span(
        region: Region, machine, num_threads: int, work_scale: float
    ) -> float:
        """Slowest-thread work units for one parallel region.

        Exact greedy list-scheduling when the chunk count is modest;
        for scaled-up runs (many chunks) the classic Graham bound
        ``W/T + (1 - 1/T) * max_chunk`` is exact enough and O(1).
        """
        costs = region.chunk_costs
        n_chunks = costs.shape[0] * work_scale
        overhead = machine.chunk_overhead_units
        if work_scale == 1.0 and n_chunks <= 4 * num_threads * 8:
            return makespan(
                costs, num_threads, region.schedule,
                per_chunk_overhead=overhead,
            )
        total = (float(costs.sum()) + overhead * costs.shape[0]) * work_scale
        if num_threads <= 1:
            return total
        max_chunk = float(costs.max()) + overhead
        return total / num_threads + (1.0 - 1.0 / num_threads) * max_chunk


@dataclass
class SimulatedTime:
    """Modelled wall-clock outcome for one run at one thread count."""

    seconds: float
    phase_seconds: Dict[str, float]
    num_threads: int

    def phase_fraction(self, phase: str) -> float:
        """Fraction of modelled time spent in ``phase``."""
        if self.seconds <= 0:
            return 0.0
        return self.phase_seconds.get(phase, 0.0) / self.seconds


def scaling_curve(
    ledger: WorkLedger, machine, thread_counts: Iterable[int]
) -> Dict[int, SimulatedTime]:
    """Modelled time for each thread count (Figure 9 helper)."""
    return {t: ledger.simulate(machine, t) for t in thread_counts}
