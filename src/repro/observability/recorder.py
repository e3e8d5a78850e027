"""One recorder: every observability fact, written once, as a typed event.

Instrumented code writes to one :class:`Recorder` (or to the disabled
:data:`NULL_RECORDER`, the default everywhere).  The recorder keeps one
ordered record of typed events, and every document is a projection of
that record:

- span open and close (with wall seconds), attributes set on the open
  span, and a counter, observation or series value on the open span →
  the trace (:func:`repro.observability.tracer.trace_doc`);
- a ledger region, a mark, a service request and a worker interval →
  the profile (:func:`repro.observability.profiler.timeline`);
- alloc, resize, free and attach → the memory report
  (:class:`repro.observability.memtrack.MemoryView`);
- metric family registration and update → the metrics document
  (:func:`repro.observability.metrics.to_snapshot`).  Updates fold into
  their family's bounded series as they arrive, so a recorder that only
  sees metric updates does not grow with traffic.

One event feeds every document that shows its fact: a region adds the
trace's region counters, the ``runtime_*`` families and a timeline
region; a kernel dispatch adds its ``kernel_count_*`` counter and its
``kernel_dispatch_total`` series; a worker task adds its lane interval
and the ``proc_*`` task and edge series; a value named in
:data:`MIRRORS` also updates its metric family (and, for some series, a
trace counter and a timeline mark).

Sites that compute something only to record it guard on
:attr:`Recorder.enabled`, so a disabled site costs one attribute read.
Buffer owners that cannot be handed a recorder (CSR graphs built deep
inside aggregation, the worker pool, shared-memory arenas) read the
active one (:func:`active`), which :func:`activate` installs for a
scope; ``leiden()`` activates its runtime's recorder for the solve.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Dict, List, Tuple

from repro.errors import MetricsError
from repro.observability.metrics import Family

__all__ = [
    "DISPATCH_ENGINE",
    "DISPATCH_FAMILY",
    "MIRRORS",
    "NULL_RECORDER",
    "REGION_FAMILIES",
    "Recorder",
    "activate",
    "active",
    "record_csr",
]

#: ``engine`` label of ``kernel_dispatch_total`` and prefix of the
#: ``kernel_count_<kernel>`` trace counters.  Only one kernel family runs
#: in production; the label is a historical name that stays so committed
#: metric documents keep their bytes.
DISPATCH_ENGINE = "count"

#: The metric families a ledger region updates; every runtime registers
#: them when it is built, so a family no region updated still appears.
REGION_FAMILIES = (
    ("counter", "runtime_parallel_regions_total",
     "parallel regions recorded in the work ledger", ("phase",)),
    ("counter", "runtime_chunks_total",
     "loop chunks dispatched, by phase and scheduling policy",
     ("phase", "policy")),
    ("counter", "runtime_atomic_ops_total", "modelled atomic operations",
     ("phase",)),
    ("counter", "runtime_barriers_total", "implicit end-of-region barriers",
     ("phase",)),
    ("counter", "runtime_work_units_total", "parallel work units recorded",
     ("phase",)),
    ("counter", "runtime_serial_work_units_total",
     "sequential work units recorded", ("phase",)),
)

#: The metric family a kernel dispatch updates (registered per workspace).
DISPATCH_FAMILY = ("counter", "kernel_dispatch_total",
                   "kernel invocations, by engine and kernel name",
                   ("engine", "kernel"))

#: Values that more than one document shows, so each site writes them
#: once: ``(event, name) -> (metric family, its label values, trace
#: counter the value is also added to, whether the timeline marks it)``.
#: A ``count``, ``observe``, ``series`` or ``set`` of ``name`` (for an
#: ``alloc``, of component ``name``, by its bytes and phase) updates the
#: family when it is registered; label values the call passes follow
#: the fixed ones.
MIRRORS: Dict[Tuple[str, str],
              Tuple[str, Tuple[str, ...], str | None, bool]] = {
    ("count", "move_iterations"):
        ("leiden_move_iterations_total", (), None, False),
    ("count", "local_moves"): ("leiden_local_moves_total", (), None, False),
    ("series", "move_delta_q"):
        ("leiden_move_delta_q_total", (), None, True),
    ("series", "move_visited"): ("leiden_pruning_vertices_total",
                                 ("visited",), "pruning_visited", False),
    ("count", "pruning_skipped"):
        ("leiden_pruning_vertices_total", ("skipped",), None, False),
    ("series", "refine_splits"):
        ("leiden_refine_splits_total", (), "refine_moves", True),
    ("count", "refine_cas_rejects"):
        ("leiden_refine_cas_rejects_total", (), None, False),
    ("count", "aggregate_super_vertices"):
        ("leiden_aggregate_super_vertices_total", (), None, False),
    ("count", "aggregate_edge_writes"):
        ("leiden_aggregate_edge_writes_total", (), None, False),
    ("series", "aggregation_shrink"):
        ("leiden_aggregation_shrink", (), None, False),
    # The community count of the run (its last set, at the run's end).
    ("set", "communities"): ("leiden_communities", (), None, False),
    ("observe", "service_latency_units"):
        ("service_latency_units", (), None, False),
    # A shared-memory segment's bytes, labelled by the allocation phase.
    ("alloc", "shm"): ("mem_shm_bytes_total", (), None, False),
}

class Recorder:
    """The ordered event record of one observed execution.

    ``events`` holds one tuple per event, its kind first; ``families``
    holds the metric families by name.  Projections read both and never
    change them, so any document can be built at any time, any number of
    times, and equals the same document built alone.
    """

    enabled = True

    def __init__(self) -> None:
        self.events: List[tuple] = []
        self.families: Dict[str, Family] = {}
        #: Phase that allocations without an explicit phase belong to;
        #: :meth:`phase` sets it for a block.
        self.current_phase = "other"
        self._handles = 0

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs):
        """A nested span around the block; closes (with its wall seconds)
        even when the block raises."""
        events = self.events
        events.append(("open", name, attrs))
        t0 = perf_counter()
        try:
            yield
        finally:
            events.append(("close", perf_counter() - t0))

    def set(self, **attrs) -> None:
        """Attach attributes to the innermost open span."""
        self.events.append(("set", attrs))
        for name, value in attrs.items():
            self._mirror("set", name, value, ())

    @contextmanager
    def phase(self, phase: str, span: str | None = None, **attrs):
        """Attribute the block's allocations to ``phase``; with ``span``,
        also open that span with ``attrs``."""
        previous, self.current_phase = self.current_phase, phase
        try:
            with (self.span(span, **attrs) if span is not None
                  else nullcontext()):
                yield
        finally:
            self.current_phase = previous

    # -- values on the open span -----------------------------------------

    def count(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` on the innermost open span."""
        self.events.append(("count", name, value))
        self._mirror("count", name, value, ())

    def observe(self, name: str, value: float, *labels) -> None:
        """Record one sample of distribution ``name`` on the open span
        (``labels`` label its mirrored metric series)."""
        self.events.append(("observe", name, value))
        self._mirror("observe", name, value, labels)

    def series(self, name: str, value: float) -> None:
        """Append one value to the ordered series ``name`` on the open
        span (the convergence monitor's per-iteration values)."""
        self.events.append(("series", name, value))
        self._mirror("series", name, value, ())

    # -- the modelled machine ----------------------------------------------

    def region(self, region) -> None:
        """One work-ledger region."""
        self.events.append(("region", region))
        phase = region.phase
        if region.kind == "parallel":
            costs = region.chunk_costs
            self._update("runtime_parallel_regions_total", 1.0, (phase,))
            self._update("runtime_barriers_total", 1.0, (phase,))
            self._update("runtime_chunks_total", costs.shape[0],
                         (phase, region.schedule.kind))
            self._update("runtime_atomic_ops_total", region.atomics,
                         (phase,))
            self._update("runtime_work_units_total", float(costs.sum()),
                         (phase,))
        else:
            self._update("runtime_serial_work_units_total",
                         float(region.chunk_costs[0]), (phase,))

    def dispatch(self, kernel: str) -> None:
        """One kernel invocation."""
        self.events.append(("dispatch", kernel))
        self._update("kernel_dispatch_total", 1.0, (DISPATCH_ENGINE, kernel))

    def mark(self, name: str, value) -> None:
        """A point annotation of the timeline between two regions; the
        trace shows it as attribute ``name`` of the open span."""
        self.events.append(("mark", name, value))

    def request(self, name: str, units: float, seconds: float,
                **args) -> None:
        """One served request: ``units`` on the server's logical clock,
        ``seconds`` of wall clock, recorded inside its span."""
        self.events.append(("request", name, float(units), seconds,
                            tuple(sorted(args.items()))))

    def worker(self, worker_id: int, name: str, start: float, end: float,
               *, phase: str, edges: int) -> None:
        """One measured task on a pool worker (wall-clock seconds since
        the pool's epoch) that scanned ``edges`` edges for ``phase``."""
        self.events.append(("worker", int(worker_id), name, float(start),
                            float(end), (("edges", edges), ("phase", phase))))
        self._update("proc_pool_tasks_total", 1.0, (phase,))
        self._update("proc_worker_edges_total", edges, (worker_id,))

    # -- memory --------------------------------------------------------------

    def alloc(self, component: str, what: str, nbytes: int, *,
              phase: str | None = None, dtype: str | None = None,
              replicas: int = 1) -> int:
        """A logical allocation (``replicas`` physical copies of it);
        returns its handle for :meth:`resize` and :meth:`free`."""
        handle = self._handles
        self._handles += 1
        phase = self.current_phase if phase is None else phase
        self.events.append(("alloc", handle, component, what, phase,
                            int(nbytes), dtype, int(replicas)))
        self._mirror("alloc", component, int(nbytes), (phase,))
        return handle

    def resize(self, handle: int, nbytes: int) -> None:
        self.events.append(("resize", handle, int(nbytes)))

    def free(self, handle: int) -> None:
        self.events.append(("free", handle))

    def attach(self, component: str, what: str, nbytes: int, *,
               replicas: int = 1) -> None:
        """A mapping of memory another process already allocated
        (physical bytes only)."""
        self.events.append(("attach", component, what, int(nbytes),
                            int(replicas)))

    # -- metrics -------------------------------------------------------------

    def family(self, kind: str, name: str, help: str = "",
               labels=()) -> None:
        """Register a metric family (idempotent); a family registered
        with another kind or label set raises
        :class:`~repro.errors.MetricsError`."""
        fam = self.families.get(name)
        if fam is None:
            self.families[name] = Family(kind, name, help, labels)
        elif fam.kind != kind or fam.labelnames != tuple(labels):
            raise MetricsError(
                f"instrument {name!r} already registered as "
                f"{fam.kind} with labels {fam.labelnames}")

    def metric(self, name: str, value: float, *labels) -> None:
        """Update registered family ``name``: a counter adds ``value``, a
        gauge takes it, a histogram observes it."""
        fam = self.families.get(name)
        if fam is None:
            raise MetricsError(f"metric family {name!r} is not registered")
        fam.update(value, labels)

    def _update(self, name: str, value: float, labels) -> None:
        fam = self.families.get(name)
        if fam is not None:
            fam.update(value, labels)

    def _mirror(self, kind: str, name: str, value, labels) -> None:
        mirror = MIRRORS.get((kind, name))
        if mirror is not None:
            self._update(mirror[0], value, mirror[1] + labels)


class _NullRecorder:
    """The disabled recorder: every call returns at once."""

    enabled = False
    events: List[tuple] = []
    families: Dict[str, object] = {}
    current_phase = "other"

    def span(self, name, **attrs):
        return _NULL_CONTEXT

    def phase(self, phase, span=None, **attrs):
        return _NULL_CONTEXT

    def alloc(self, component, what, nbytes, **kw) -> int:
        return -1

    def _noop(self, *args, **kw) -> None:
        return None

    set = count = observe = series = region = dispatch = mark = _noop
    request = worker = resize = free = attach = family = metric = _noop


_NULL_CONTEXT = nullcontext()

#: The disabled recorder; the default of every recording site.
NULL_RECORDER = _NullRecorder()

_ACTIVE = NULL_RECORDER


def active():
    """The recorder :func:`activate` installed (``NULL_RECORDER`` when
    none)."""
    return _ACTIVE


@contextmanager
def activate(recorder):
    """Install ``recorder`` (``None`` = disabled) as the active recorder
    for the block; nested scopes restore the outer one on exit."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = recorder if recorder is not None else NULL_RECORDER
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous


def record_csr(recorder, graph, *, component: str = "csr",
               phase: str | None = None) -> List[int]:
    """Record a CSR graph's four arrays as allocations; returns their
    handles (none when ``recorder`` is disabled).

    Graph loads are memoized, so a cached graph's construction may
    predate the recorder; measurement entry points call this to charge
    the input graph explicitly.  Without ``phase`` the arrays belong to
    the recorder's current phase.
    """
    if not recorder.enabled:
        return []
    return [
        recorder.alloc(component, what, arr.nbytes, phase=phase,
                       dtype=str(arr.dtype))
        for what, arr in (("offsets", graph.offsets),
                          ("targets", graph.targets),
                          ("weights", graph.weights),
                          ("degrees", graph.degrees))
    ]
