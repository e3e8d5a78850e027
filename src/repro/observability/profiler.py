"""The profile: the thread timeline of the simulated runtime.

:func:`timeline` replays a :class:`~repro.observability.recorder.
Recorder`'s ledger regions (each labelled by the span path open when it
was recorded), marks, service requests and worker intervals, and lays
the regions out as per-thread :class:`ThreadEvent` intervals on the
simulated clock — chunk executions, the per-thread atomic share, and
barrier waits — using exactly the cost-model arithmetic of
:meth:`repro.parallel.simthread.WorkLedger.simulate`, so the timeline's
per-phase totals agree with the modelled runtime.

Consumers:

- :func:`to_chrome_trace` emits the timeline in Chrome trace-event JSON
  (``chrome://tracing`` / Perfetto; one lane per simulated thread, one
  extra ``service`` lane for :class:`~repro.service.server.
  PartitionServer` request events, counter tracks for convergence marks,
  and real wall-clock lanes for the process engine's pool workers under
  their own process group);
- :mod:`repro.observability.profile_report` computes the critical-path /
  barrier-wait / load-imbalance attribution and the top-N text report
  (``profile.txt`` of a recorded run).

Everything but the worker lanes is deterministic — two runs at the same
seed produce byte-identical Chrome trace JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.observability.recorder import MIRRORS
from repro.observability.tracer import Span, format_span_path
from repro.parallel.costmodel import PAPER_MACHINE, MachineModel
from repro.parallel.schedule import Schedule, assign_chunks

__all__ = [
    "PROFILE_SCHEMA",
    "Mark",
    "RegionRecord",
    "RegionTiming",
    "RequestRecord",
    "ThreadEvent",
    "Timeline",
    "WorkerRecord",
    "timeline",
    "to_chrome_trace",
    "validate_chrome_trace",
]

#: Version tag embedded in the Chrome trace document's ``otherData``.
PROFILE_SCHEMA = "repro.profile/1"

#: Event categories emitted on the timeline.
CAT_CHUNK = "chunk"
CAT_ATOMICS = "atomics"
CAT_BARRIER = "barrier"
CAT_SERIAL = "serial"
CAT_REQUEST = "request"
CAT_WORKER = "worker"

#: Chrome trace process ids: the simulated machine, the service lane and
#: the process-engine worker lanes (real wall-clock, one lane per worker).
PID_MACHINE = 0
PID_SERVICE = 1
PID_WORKERS = 2


@dataclass(frozen=True)
class RegionRecord:
    """One captured execution region (mirror of the ledger's ``Region``)."""

    index: int
    kind: str                 # "parallel" | "serial"
    phase: str
    label: str                # span path at record time, or phase
    chunk_costs: np.ndarray   # per-chunk work units; 1-elem for serial
    schedule: Schedule
    atomics: float


@dataclass(frozen=True)
class Mark:
    """A point annotation anchored to the end of region ``region_index-1``
    (i.e. recorded after that many regions); rendered as a Chrome counter
    sample — the convergence monitor's per-iteration ΔQ markers."""

    region_index: int
    name: str
    value: float


@dataclass(frozen=True)
class RequestRecord:
    """One service request interval on the server's logical clock."""

    name: str
    start_units: float
    duration_units: float
    args: Tuple[Tuple[str, object], ...] = ()


@dataclass(frozen=True)
class WorkerRecord:
    """One *measured* kernel execution on a worker process.

    Unlike every other record these carry real wall-clock seconds
    (relative to the pool's epoch), so they land on their own lanes and
    the simulated-machine lanes stay byte-deterministic.
    """

    worker_id: int
    name: str
    start: float
    end: float
    args: Tuple[Tuple[str, object], ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class ThreadEvent:
    """One interval on one simulated-thread lane (seconds)."""

    tid: int
    name: str
    cat: str
    start: float
    end: float
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class RegionTiming:
    """Per-region timing summary derived while building the timeline."""

    record: RegionRecord
    start: float
    end: float                     # incl. atomic share + barrier
    busy: np.ndarray               # per-thread busy seconds (chunks+atomics)
    barrier_cost: float            # modelled barrier seconds of this region
    imbalance_wait: float          # sum over threads of (span - finish)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Timeline:
    """The fully laid-out thread timeline at one thread count."""

    def __init__(
        self,
        num_threads: int,
        machine: MachineModel,
        events: List[ThreadEvent],
        regions: List[RegionTiming],
        marks: List[Tuple[float, Mark]],
        requests: List[RequestRecord],
        workers: List[WorkerRecord] | None = None,
    ) -> None:
        self.num_threads = num_threads
        self.machine = machine
        self.events = events
        self.regions = regions
        self.marks = marks
        self.requests = requests
        self.workers = workers if workers is not None else []

    @property
    def total_seconds(self) -> float:
        return self.regions[-1].end if self.regions else 0.0

    def phase_seconds(self) -> Dict[str, float]:
        """Timeline seconds per phase tag (region span incl. barrier)."""
        out: Dict[str, float] = {}
        for r in self.regions:
            out[r.record.phase] = out.get(r.record.phase, 0.0) + r.seconds
        return out

    def thread_busy_seconds(self) -> np.ndarray:
        """Total busy seconds per thread lane."""
        busy = np.zeros(self.num_threads)
        for r in self.regions:
            busy += r.busy
        return busy


#: Series whose values the timeline also marks (the convergence monitor).
_MARKED = frozenset(name for (kind, name), (*_, mark) in MIRRORS.items()
                    if kind == "series" and mark)


def _records(recorder):
    """The recorder's regions, marks, requests and worker intervals."""
    regions: List[RegionRecord] = []
    marks: List[Mark] = []
    requests: List[RequestRecord] = []
    workers: List[WorkerRecord] = []
    spans: List[Span] = []
    cursor = 0.0
    for ev in recorder.events:
        kind = ev[0]
        if kind == "open":
            spans.append(Span(ev[1], ev[2]))
        elif kind == "close":
            spans.pop()
        elif kind == "region":
            region = ev[1]
            regions.append(RegionRecord(
                index=len(regions), kind=region.kind, phase=region.phase,
                label=format_span_path(spans) or region.phase,
                chunk_costs=region.chunk_costs, schedule=region.schedule,
                atomics=region.atomics))
        elif kind == "mark" or (kind == "series" and ev[1] in _MARKED):
            marks.append(Mark(len(regions), ev[1], float(ev[2])))
        elif kind == "request":
            requests.append(RequestRecord(ev[1], cursor, ev[2], ev[4]))
            cursor += ev[2]
        elif kind == "worker":
            workers.append(WorkerRecord(*ev[1:]))
    return regions, marks, requests, workers


def timeline(recorder, num_threads: int = 8) -> Timeline:
    """Lay every recorded region out on ``num_threads`` thread lanes of
    the paper machine.

    Mirrors :meth:`~repro.parallel.simthread.WorkLedger.simulate`
    region by region: chunk durations pay the machine's per-thread
    slowdown, every thread appends its equal share of the region's
    atomics, and the region closes with an implicit barrier — each
    thread's gap between its own finish and the region end becomes a
    ``barrier`` wait event (imbalance + barrier cost).
    """
    T = int(num_threads)
    if T < 1:
        raise ValueError("num_threads must be >= 1")
    m = PAPER_MACHINE
    records, record_marks, requests, workers = _records(recorder)
    slowdown = m.parallel_slowdown(T)
    unit_sec = m.time_per_unit * slowdown
    bar = m.barrier_seconds(T)
    events: List[ThreadEvent] = []
    regions: List[RegionTiming] = []
    clock = 0.0
    for rec in records:
        t0 = clock
        busy = np.zeros(T)
        if rec.kind == "serial":
            dur = float(rec.chunk_costs[0]) * m.time_per_unit
            events.append(ThreadEvent(
                0, rec.label, CAT_SERIAL, t0, t0 + dur,
                {"region": rec.index, "phase": rec.phase,
                 "work_units": float(rec.chunk_costs[0])},
            ))
            busy[0] = dur
            regions.append(RegionTiming(
                record=rec, start=t0, end=t0 + dur, busy=busy,
                barrier_cost=0.0, imbalance_wait=dur * (T - 1),
            ))
            clock = t0 + dur
            continue
        costs = rec.chunk_costs + m.chunk_overhead_units
        owner, start_units = assign_chunks(costs, T, rec.schedule)
        finish = np.zeros(T)
        for c in range(costs.shape[0]):
            tid = int(owner[c])
            s = t0 + start_units[c] * unit_sec
            e = s + float(costs[c]) * unit_sec
            events.append(ThreadEvent(
                tid, rec.label, CAT_CHUNK, s, e,
                {"region": rec.index, "phase": rec.phase, "chunk": c,
                 "work_units": float(rec.chunk_costs[c])},
            ))
            finish[tid] = e - t0
        share = rec.atomics * m.atomic_seconds * slowdown / T
        if share > 0.0:
            for tid in range(T):
                events.append(ThreadEvent(
                    tid, f"{rec.label} (atomics)", CAT_ATOMICS,
                    t0 + finish[tid], t0 + finish[tid] + share,
                    {"region": rec.index, "phase": rec.phase,
                     "atomic_ops": rec.atomics / T},
                ))
            finish += share
        span = float(finish.max())
        end = t0 + span + bar
        waits = span - finish
        for tid in range(T):
            wait = float(waits[tid]) + bar
            if wait > 0.0:
                events.append(ThreadEvent(
                    tid, f"{rec.label} (barrier)", CAT_BARRIER,
                    t0 + float(finish[tid]), end,
                    {"region": rec.index, "phase": rec.phase},
                ))
        regions.append(RegionTiming(
            record=rec, start=t0, end=end, busy=finish.copy(),
            barrier_cost=bar, imbalance_wait=float(waits.sum()),
        ))
        clock = end
    # Anchor marks to the end of the region they follow.
    ends = [r.end for r in regions]
    marks = [
        (ends[mk.region_index - 1] if mk.region_index > 0 else 0.0, mk)
        for mk in record_marks
    ]
    return Timeline(T, m, events, regions, marks, requests, workers)


# -- Chrome trace-event export ------------------------------------------------


def to_chrome_trace(timeline: Timeline, **meta) -> dict:
    """The timeline as a Chrome trace-event JSON document.

    Loadable in ``chrome://tracing`` and Perfetto: one lane per simulated
    thread under the machine process, service requests under their own
    process, convergence marks as counter tracks.  Timestamps are the
    simulated clock in microseconds; the document is deterministic (byte
    identical across runs at a fixed seed).
    """
    m = timeline.machine
    events: List[dict] = [
        {"ph": "M", "name": "process_name", "pid": PID_MACHINE, "tid": 0,
         "args": {"name": f"simulated {m.name} @ {timeline.num_threads} "
                          f"threads"}},
    ]
    for tid in range(timeline.num_threads):
        events.append({"ph": "M", "name": "thread_name", "pid": PID_MACHINE,
                       "tid": tid, "args": {"name": f"thread {tid}"}})
    if timeline.requests:
        events.append({"ph": "M", "name": "process_name",
                       "pid": PID_SERVICE, "tid": 0,
                       "args": {"name": "partition server"}})
        events.append({"ph": "M", "name": "thread_name", "pid": PID_SERVICE,
                       "tid": 0, "args": {"name": "service"}})
    if timeline.workers:
        events.append({"ph": "M", "name": "process_name",
                       "pid": PID_WORKERS, "tid": 0,
                       "args": {"name": "pool workers (wall clock)"}})
        for wid in sorted({w.worker_id for w in timeline.workers}):
            events.append({"ph": "M", "name": "thread_name",
                           "pid": PID_WORKERS, "tid": wid,
                           "args": {"name": f"worker {wid}"}})
    for ev in timeline.events:
        events.append({
            "ph": "X", "name": ev.name, "cat": ev.cat,
            "pid": PID_MACHINE, "tid": ev.tid,
            "ts": ev.start * 1e6, "dur": ev.duration * 1e6,
            "args": ev.args,
        })
    for ts, mk in timeline.marks:
        events.append({
            "ph": "C", "name": mk.name, "cat": "convergence",
            "pid": PID_MACHINE, "tid": 0, "ts": ts * 1e6,
            "args": {"value": mk.value},
        })
    # Worker lanes carry measured wall-clock; emit each lane in start
    # order so the per-lane non-overlap contract holds (a worker runs
    # its tasks serially, but barrier drains return them index-sorted).
    for w in sorted(timeline.workers,
                    key=lambda r: (r.worker_id, r.start, r.end)):
        events.append({
            "ph": "X", "name": w.name, "cat": CAT_WORKER,
            "pid": PID_WORKERS, "tid": w.worker_id,
            "ts": w.start * 1e6, "dur": w.duration * 1e6,
            "args": dict(w.args),
        })
    unit_us = m.time_per_unit * 1e6
    for req in timeline.requests:
        events.append({
            "ph": "X", "name": req.name, "cat": CAT_REQUEST,
            "pid": PID_SERVICE, "tid": 0,
            "ts": req.start_units * unit_us,
            "dur": req.duration_units * unit_us,
            "args": dict(req.args),
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": PROFILE_SCHEMA,
            "machine": m.as_dict(),
            "num_threads": timeline.num_threads,
            **meta,
        },
    }


def chrome_trace_json(doc: dict, *, indent: int | None = None) -> str:
    """Serialize a Chrome trace document deterministically."""
    return json.dumps(doc, indent=indent, sort_keys=True)


def validate_chrome_trace(doc: dict) -> Dict[str, object]:
    """Validate a Chrome trace-event document against the event schema.

    Checks the structural contract this module guarantees: required
    top-level keys, required per-event fields per phase type,
    non-negative timestamps/durations, and per-lane time ordering: the
    duration events of every lane must be strictly non-overlapping.
    Raises ``ValueError`` on the first violation; returns summary
    statistics (event count, lanes, duration) on success — what the CI
    profile smoke step asserts on.
    """
    if not isinstance(doc, dict):
        raise ValueError("trace document must be a JSON object")
    for key in ("traceEvents", "otherData"):
        if key not in doc:
            raise ValueError(f"trace document missing {key!r}")
    other = doc["otherData"]
    if other.get("schema") != PROFILE_SCHEMA:
        raise ValueError(
            f"unsupported profile schema {other.get('schema')!r} "
            f"(expected {PROFILE_SCHEMA!r})")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        raise ValueError("traceEvents must be a non-empty list")
    lanes: Dict[Tuple[int, int], float] = {}
    named_lanes = 0
    end = 0.0
    for i, ev in enumerate(events):
        if not isinstance(ev, dict) or "ph" not in ev:
            raise ValueError(f"event {i} is not an object with 'ph'")
        ph = ev["ph"]
        if ph not in ("M", "X", "C", "i"):
            raise ValueError(f"event {i} has unknown phase type {ph!r}")
        if ph == "M":
            if ev.get("name") == "thread_name":
                named_lanes += 1
            continue
        for key in ("name", "ts", "pid", "tid"):
            if key not in ev:
                raise ValueError(f"event {i} ({ph}) missing {key!r}")
        if ev["ts"] < 0:
            raise ValueError(f"event {i} has negative ts")
        if ph != "X":
            continue
        if "dur" not in ev or ev["dur"] < 0:
            raise ValueError(f"event {i} missing or negative dur")
        lane = (ev["pid"], ev["tid"])
        ts = ev["ts"]
        ev_end = ts + ev["dur"]
        # Regions, requests and worker tasks are sequential within a
        # lane, so its duration events must not overlap.
        if ts < lanes.get(lane, 0.0) - 1e-6:
            raise ValueError(
                f"event {i} overlaps previous event on lane {lane}")
        lanes[lane] = ev_end
        end = max(end, ev_end)
    if named_lanes < int(other.get("num_threads", 1)):
        raise ValueError("missing thread_name metadata for some lanes")
    return {
        "events": len(events),
        "lanes": len(lanes),
        "named_lanes": named_lanes,
        "duration_us": end,
    }
