"""Machine and implementation cost models.

The paper's testbed is a dual-socket server with two 16-core Intel Xeon
Gold 6226R processors (32 physical cores, 64 hardware threads) — the
machine we do not have.  :class:`MachineModel` encodes its behaviour as a
small analytic model: core capacity with diminishing SMT returns, memory
bandwidth contention that grows with active cores, and a NUMA penalty once
threads span both sockets.  The work ledger multiplies through this model
to convert counted work units into modelled seconds.

:class:`ImplementationProfile` captures the *constant-factor* efficiency
of each competing implementation (C++ sequential original Leiden, igraph,
NetworKit's parallel C++, cuGraph on an A100).  Relative runtimes in the
reproduction come from (a) work units actually counted while executing our
faithful reimplementation of each competitor's algorithm and (b) these
documented constants, calibrated once against the paper's reported average
speedups (Table 1).  The calibration is recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MachineModel:
    """Analytic model of a shared-memory NUMA machine.

    Work units are abstract (roughly: one edge scan plus its hashtable
    update).  ``time_per_unit`` anchors them to seconds for a single
    thread of the modelled machine running the reference implementation.
    """

    name: str = "dual-xeon-6226r"
    cores_per_socket: int = 16
    sockets: int = 2
    smt: int = 2
    #: Fraction of a core the second SMT thread contributes.
    smt_gain: float = 0.55
    #: Memory-contention growth per additional active core.
    contention_beta: float = 0.018
    #: Extra slowdown when threads span both sockets (at full spread).
    numa_factor: float = 1.24
    #: Additional penalty at full SMT occupancy (paper: NUMA effects at 64).
    smt_pressure: float = 1.12
    #: Seconds per work unit on one dedicated core.
    time_per_unit: float = 2.0e-8
    #: Dynamic-schedule handshake, expressed in work units per chunk.
    chunk_overhead_units: float = 40.0
    #: Seconds per atomic RMW (uncontended).
    atomic_seconds: float = 6.0e-9
    #: Base cost of one barrier / region teardown, seconds per log2(T).
    barrier_base_seconds: float = 3.0e-6

    @property
    def physical_cores(self) -> int:
        return self.cores_per_socket * self.sockets

    @property
    def max_threads(self) -> int:
        return self.physical_cores * self.smt

    def capacity(self, num_threads: int) -> float:
        """Effective core-equivalents delivered by ``num_threads`` threads."""
        t = max(1, int(num_threads))
        cores = min(t, self.physical_cores)
        smt_threads = min(max(t - self.physical_cores, 0),
                          self.physical_cores * (self.smt - 1))
        return cores + self.smt_gain * smt_threads

    def contention(self, num_threads: int) -> float:
        """Memory-bandwidth contention multiplier (>= 1)."""
        active_cores = min(max(1, num_threads), self.physical_cores)
        return 1.0 + self.contention_beta * (active_cores - 1)

    def numa(self, num_threads: int) -> float:
        """NUMA + SMT-pressure multiplier (>= 1)."""
        t = max(1, int(num_threads))
        cps = self.cores_per_socket
        mult = 1.0
        if t > cps:
            # Ramp in the cross-socket penalty as the second socket fills.
            frac = min(t - cps, cps) / cps
            mult *= 1.0 + (self.numa_factor - 1.0) * frac
        if t > self.physical_cores:
            frac = min(t - self.physical_cores, self.physical_cores) / self.physical_cores
            mult *= 1.0 + (self.smt_pressure - 1.0) * frac
        return mult

    def parallel_slowdown(self, num_threads: int) -> float:
        """Per-thread slowdown vs a dedicated core.

        A parallel region whose slowest thread holds ``W`` work units
        takes ``W * time_per_unit * parallel_slowdown(T)`` seconds.
        """
        t = max(1, int(num_threads))
        return (t / self.capacity(t)) * self.contention(t) * self.numa(t)

    def barrier_seconds(self, num_threads: int) -> float:
        """Cost of one barrier at ``num_threads`` threads."""
        t = max(1, int(num_threads))
        if t == 1:
            return 0.0
        return self.barrier_base_seconds * float(np.log2(t))

    def as_dict(self) -> dict:
        """JSON-ready description (embedded in trace document metadata)."""
        return {
            "name": self.name,
            "cores_per_socket": self.cores_per_socket,
            "sockets": self.sockets,
            "smt": self.smt,
            "physical_cores": self.physical_cores,
            "max_threads": self.max_threads,
            "time_per_unit": self.time_per_unit,
            "atomic_seconds": self.atomic_seconds,
            "barrier_base_seconds": self.barrier_base_seconds,
            "chunk_overhead_units": self.chunk_overhead_units,
        }

    def scaled(self, work_scale: float) -> "MachineModel":
        """Model a ``work_scale``-times larger input on this machine.

        Per-unit and per-atomic costs scale with the work (there are
        simply more of them); per-region fixed costs (barriers, the
        dynamic-schedule handshake per chunk) do not — large inputs have
        proportionally more chunks, which the chunked ledger regions
        already capture, but not proportionally more barriers.
        """
        return MachineModel(
            name=f"{self.name}x{work_scale:g}",
            cores_per_socket=self.cores_per_socket,
            sockets=self.sockets,
            smt=self.smt,
            smt_gain=self.smt_gain,
            contention_beta=self.contention_beta,
            numa_factor=self.numa_factor,
            smt_pressure=self.smt_pressure,
            time_per_unit=self.time_per_unit * work_scale,
            chunk_overhead_units=self.chunk_overhead_units,
            atomic_seconds=self.atomic_seconds * work_scale,
            barrier_base_seconds=self.barrier_base_seconds,
        )


@dataclass(frozen=True)
class ImplementationProfile:
    """Constant-factor efficiency of one implementation.

    ``unit_cost`` scales the machine's ``time_per_unit``; ``parallel``
    says whether the implementation uses all requested threads or is
    sequential; ``fixed_overhead_seconds`` models per-run setup.
    """

    name: str
    unit_cost: float
    parallel: bool
    fixed_overhead_seconds: float = 0.0
    description: str = ""

    def machine_for(self, base: MachineModel) -> MachineModel:
        """The machine model with this implementation's unit cost applied."""
        return MachineModel(
            name=f"{base.name}/{self.name}",
            cores_per_socket=base.cores_per_socket,
            sockets=base.sockets,
            smt=base.smt,
            smt_gain=base.smt_gain,
            contention_beta=base.contention_beta,
            numa_factor=base.numa_factor,
            smt_pressure=base.smt_pressure,
            time_per_unit=base.time_per_unit * self.unit_cost,
            chunk_overhead_units=base.chunk_overhead_units,
            atomic_seconds=base.atomic_seconds * self.unit_cost,
            barrier_base_seconds=base.barrier_base_seconds,
        )

    def effective_threads(self, requested: int) -> int:
        return requested if self.parallel else 1


#: The paper's CPU testbed (Section 5.1.1).
PAPER_MACHINE = MachineModel()

#: The A100 GPU testbed, folded into the same abstraction: a "machine"
#: with massive flat parallelism and no NUMA, but a higher per-unit cost
#: for the irregular, hashtable-heavy inner loops of community detection.
GPU_MACHINE = MachineModel(
    name="a100",
    cores_per_socket=108,  # SMs
    sockets=1,
    smt=1,
    smt_gain=0.0,
    contention_beta=0.004,
    numa_factor=1.0,
    smt_pressure=1.0,
    time_per_unit=1.25e-7,  # per-SM serial rate on irregular work
    chunk_overhead_units=0.0,
    atomic_seconds=2.0e-9,
    barrier_base_seconds=1.0e-5,
)

#: Constant-factor profiles, calibrated against Table 1 / Figure 6(b).
#: The *work* each implementation performs is measured, not assumed; these
#: constants only encode language/runtime efficiency differences.
IMPLEMENTATION_PROFILES: dict[str, ImplementationProfile] = {
    "gve": ImplementationProfile(
        "gve", 1.0, True,
        description="GVE-Leiden: asynchronous, flag-pruned, per-thread tables",
    ),
    "original": ImplementationProfile(
        "original", 21.0, False,
        fixed_overhead_seconds=0.05,
        description="libleidenalg: sequential C++, flexible containers, "
                    "randomized refinement run to full convergence",
    ),
    "igraph": ImplementationProfile(
        "igraph", 5.1, False,
        fixed_overhead_seconds=0.05,
        description="igraph_community_leiden: sequential C, run to convergence",
    ),
    "networkit": ImplementationProfile(
        "networkit", 4.0, True,
        fixed_overhead_seconds=0.02,
        description="NetworKit ParallelLeiden: global queues + vertex/"
                    "community locking",
    ),
    "cugraph": ImplementationProfile(
        "cugraph", 1.0, True,
        fixed_overhead_seconds=0.01,
        description="cuGraph Leiden on the A100 device model (BSP moves)",
    ),
}
