"""Simulated shared-memory parallel runtime.

The paper runs on a dual-socket 32-core Xeon with OpenMP.  This package
provides the equivalent abstractions for a pure-Python reproduction:

- :mod:`repro.parallel.rng` — the xorshift32 generators the paper uses for
  randomized refinement;
- :mod:`repro.parallel.hashtable` — the collision-free per-thread
  hashtables of Algorithms 2-4;
- :mod:`repro.parallel.scan` — (parallel) exclusive prefix sums;
- :mod:`repro.parallel.schedule` — OpenMP-style static/dynamic/guided
  loop schedules;
- :mod:`repro.parallel.simthread` — a work ledger recording every parallel
  region so runtimes can be *modelled* for any thread count after a single
  execution (the GIL makes real thread scaling unobservable in Python);
- :mod:`repro.parallel.costmodel` — the machine model (cores, SMT, memory
  contention, NUMA) that converts ledger work into modelled seconds;
- :mod:`repro.parallel.atomics` — atomic-op emulation with accounting;
- :mod:`repro.parallel.shm` — shared-memory numpy arenas (owner/attacher);
- :mod:`repro.parallel.procpool` — the persistent worker-process pool
  behind the ``process`` engine (the only real parallelism: every other
  engine runs in one process and models its threads);
- :mod:`repro.parallel.runtime` — the facade tying it all together.
"""

from repro.parallel.atomics import AtomicArray
from repro.parallel.costmodel import (
    IMPLEMENTATION_PROFILES,
    PAPER_MACHINE,
    ImplementationProfile,
    MachineModel,
)
from repro.parallel.hashtable import CollisionFreeHashtable
from repro.parallel.procpool import (
    ProcessPool,
    TaskResult,
    WorkerCrashError,
    pool_kernel,
)
from repro.parallel.rng import Xorshift32
from repro.parallel.runtime import Runtime
from repro.parallel.scan import blocked_exclusive_scan, exclusive_scan, inclusive_scan
from repro.parallel.schedule import Schedule, assign_chunks, chunk_spans, makespan
from repro.parallel.shm import AttachedArena, ShmArena
from repro.parallel.simthread import Region, WorkLedger

__all__ = [
    "AttachedArena",
    "ProcessPool",
    "ShmArena",
    "TaskResult",
    "WorkerCrashError",
    "pool_kernel",
    "Xorshift32",
    "CollisionFreeHashtable",
    "exclusive_scan",
    "inclusive_scan",
    "blocked_exclusive_scan",
    "Schedule",
    "chunk_spans",
    "assign_chunks",
    "makespan",
    "WorkLedger",
    "Region",
    "MachineModel",
    "ImplementationProfile",
    "PAPER_MACHINE",
    "IMPLEMENTATION_PROFILES",
    "AtomicArray",
    "Runtime",
]
