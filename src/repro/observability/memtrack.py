"""The memory report: logical allocation events and watermarks.

:class:`MemoryView` replays a :class:`~repro.observability.recorder.
Recorder`'s alloc, resize, free and attach events on the memory report's
own logical clock (the count of applied events, never wall time),
keeping live-byte totals and peak watermarks per component and per
phase, and emits a byte-deterministic schema-versioned ``repro.memory/1``
report plus Chrome-trace counter lanes on their own process id
(:data:`PID_MEMORY`).

Determinism contract (the reason the report can be an exact-match CI
baseline):

- the clock is the event count: double runs of the same seed replay the
  same events in the same order, so the document is byte-identical;
- iteration is sorted everywhere (components, phases, live handles) —
  no dict-order or ``PYTHONHASHSEED`` dependence;
- **logical** bytes are width-invariant: a producer that allocates one
  buffer *per worker* records one worker's share as the logical size
  and the worker count as ``replicas``.  The replica-scaled total is
  tracked separately in the ``physical`` section, which is the only
  part of the report allowed to vary with worker count.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.observability.profiler import PROFILE_SCHEMA

__all__ = [
    "MAX_EVENTS",
    "MEMORY_SCHEMA",
    "MemoryView",
    "PID_MEMORY",
    "validate_memory_doc",
]

#: Version tag of the memory report document.
MEMORY_SCHEMA = "repro.memory/1"

#: Chrome-trace process id of the memory counter lanes (the profile
#: owns pids 0-2; see :mod:`repro.observability.profiler`).
PID_MEMORY = 4

#: Cap on the report's per-event detail.  Accounting (live/peak)
#: continues past the cap; only the event *list* stops growing, and the
#: report carries ``events_dropped`` so truncation is never silent.
MAX_EVENTS = 65536


class MemoryView:
    """The memory events of a recorder, replayed into watermarks.

    With ``components``, only allocations of those components count —
    ``repro serve --record`` reports its store alone.  Handles are numbered
    in allocation order within the view; a free or resize of a handle
    that is not live is ignored and does not advance the clock.
    """

    def __init__(self, recorder, components=None) -> None:
        self._seq = 0
        #: handle -> (component, what, phase, nbytes, dtype, replicas)
        self._live: Dict[int, Tuple[str, str, str, int, Optional[str], int]] = {}
        self._live_bytes = 0
        self._peak_bytes = 0
        self._peak_seq = 0
        self._phys_live = 0
        self._phys_peak = 0
        self._comp_live: Dict[str, int] = {}
        self._comp_peak: Dict[str, Tuple[int, int]] = {}
        self._comp_counts: Dict[str, List[int]] = {}  # [allocs, frees, resizes]
        self._phase_live: Dict[str, int] = {}
        self._phase_peak: Dict[str, Tuple[int, int]] = {}
        self._events: List[Tuple] = []
        self._events_dropped = 0
        self._attached_bytes = 0
        self._attach_events = 0
        handles: Dict[int, int] = {}
        for ev in recorder.events:
            kind = ev[0]
            if kind == "alloc":
                if components is None or ev[2] in components:
                    handles[ev[1]] = len(handles)
                    self._alloc(handles[ev[1]], *ev[2:])
            elif kind == "resize":
                if ev[1] in handles:
                    self._resize(handles[ev[1]], ev[2])
            elif kind == "free":
                if ev[1] in handles:
                    self._free(handles[ev[1]])
            elif kind == "attach":
                if components is None or ev[1] in components:
                    self._attached_bytes += ev[3] * ev[4]
                    self._attach_events += 1

    # -- clock -------------------------------------------------------------

    @property
    def clock(self) -> int:
        """Logical clock: number of applied events."""
        return self._seq

    # -- replay ------------------------------------------------------------

    def _record(self, kind: str, handle: int, component: str, what: str,
                phase: str, nbytes: int, dtype: Optional[str],
                replicas: int) -> None:
        self._seq += 1
        if len(self._events) < MAX_EVENTS:
            self._events.append(
                (self._seq, kind, handle, component, what, phase,
                 nbytes, dtype, replicas))
        else:
            self._events_dropped += 1

    def _apply(self, component: str, phase: str, delta: int,
               replicas: int) -> None:
        self._live_bytes += delta
        if self._live_bytes > self._peak_bytes:
            self._peak_bytes = self._live_bytes
            self._peak_seq = self._seq
        self._phys_live += delta * replicas
        if self._phys_live > self._phys_peak:
            self._phys_peak = self._phys_live
        live = self._comp_live.get(component, 0) + delta
        self._comp_live[component] = live
        peak, _ = self._comp_peak.get(component, (0, 0))
        if live > peak:
            self._comp_peak[component] = (live, self._seq)
        elif component not in self._comp_peak:
            self._comp_peak[component] = (max(live, 0), self._seq)
        plive = self._phase_live.get(phase, 0) + delta
        self._phase_live[phase] = plive
        ppeak, _ = self._phase_peak.get(phase, (0, 0))
        if plive > ppeak:
            self._phase_peak[phase] = (plive, self._seq)
        elif phase not in self._phase_peak:
            self._phase_peak[phase] = (max(plive, 0), self._seq)

    def _alloc(self, handle: int, component: str, what: str, phase: str,
               nbytes: int, dtype: Optional[str], replicas: int) -> None:
        self._record("alloc", handle, component, what, phase, nbytes,
                     dtype, replicas)
        self._live[handle] = (component, what, phase, nbytes, dtype, replicas)
        self._counts(component)[0] += 1
        self._apply(component, phase, nbytes, replicas)

    def _resize(self, handle: int, nbytes: int) -> None:
        entry = self._live.get(handle)
        if entry is None:
            return
        component, what, phase, old, dtype, replicas = entry
        self._record("resize", handle, component, what, phase, nbytes,
                     dtype, replicas)
        self._live[handle] = (component, what, phase, nbytes, dtype, replicas)
        self._counts(component)[2] += 1
        self._apply(component, phase, nbytes - old, replicas)

    def _free(self, handle: int) -> None:
        entry = self._live.pop(handle, None)
        if entry is None:
            return
        component, what, phase, nbytes, dtype, replicas = entry
        self._record("free", handle, component, what, phase, nbytes,
                     dtype, replicas)
        self._counts(component)[1] += 1
        self._apply(component, phase, -nbytes, replicas)

    def _counts(self, component: str) -> List[int]:
        counts = self._comp_counts.get(component)
        if counts is None:
            counts = [0, 0, 0]
            self._comp_counts[component] = counts
        return counts

    # -- queries -----------------------------------------------------------

    def live_bytes(self, component: Optional[str] = None) -> int:
        if component is None:
            return self._live_bytes
        return self._comp_live.get(component, 0)

    def peak_bytes(self, component: Optional[str] = None) -> int:
        if component is None:
            return self._peak_bytes
        return self._comp_peak.get(component, (0, 0))[0]

    def phase_peak_bytes(self, phase: str) -> int:
        return self._phase_peak.get(phase, (0, 0))[0]

    def live_allocations(self) -> List[dict]:
        """Live allocations as JSON-ready dicts, sorted by handle."""
        out = []
        for handle in sorted(self._live):
            component, what, phase, nbytes, dtype, replicas = \
                self._live[handle]
            rec = {
                "handle": handle,
                "component": component,
                "what": what,
                "phase": phase,
                "nbytes": nbytes,
            }
            if dtype is not None:
                rec["dtype"] = dtype
            if replicas != 1:
                rec["replicas"] = replicas
            out.append(rec)
        return out

    def allocation_trace(self, *, limit: Optional[int] = None) -> List[str]:
        """Human-readable live-allocation lines, largest first.

        Ties break on handle order (allocation order), so the trace is
        deterministic.  This is what a simulated device OOM attaches to
        its exception: *what* filled the budget, by component and phase.
        """
        live = self.live_allocations()
        live.sort(key=lambda r: (-r["nbytes"], r["handle"]))
        if limit is not None:
            live = live[:limit]
        return [
            f"{r['component']}/{r['what']} phase={r['phase']} "
            f"{r['nbytes']} B"
            + (f" x{r['replicas']}" if r.get("replicas") else "")
            for r in live
        ]

    # -- export ------------------------------------------------------------

    def to_snapshot(self, **meta) -> dict:
        """The ``repro.memory/1`` report document (JSON-ready).

        The ``logical`` section is deterministic *and* invariant to
        worker/shard count; ``physical`` (replica-scaled live/peak plus
        attach totals) may legitimately vary with width.  No wall-clock
        fields anywhere.
        """
        components = {}
        for comp in sorted(set(self._comp_live) | set(self._comp_counts)):
            peak, peak_seq = self._comp_peak.get(comp, (0, 0))
            allocs, frees, resizes = self._comp_counts.get(comp, (0, 0, 0))
            components[comp] = {
                "live_bytes": self._comp_live.get(comp, 0),
                "peak_bytes": peak,
                "peak_seq": peak_seq,
                "allocs": allocs,
                "frees": frees,
                "resizes": resizes,
            }
        phases = {}
        for phase in sorted(self._phase_live):
            peak, peak_seq = self._phase_peak.get(phase, (0, 0))
            phases[phase] = {
                "live_bytes": self._phase_live.get(phase, 0),
                "peak_bytes": peak,
                "peak_seq": peak_seq,
            }
        events = [
            {
                "seq": seq, "kind": kind, "handle": handle,
                "component": component, "what": what, "phase": phase,
                "nbytes": nbytes,
                **({"dtype": dtype} if dtype is not None else {}),
                **({"replicas": replicas} if replicas != 1 else {}),
            }
            for (seq, kind, handle, component, what, phase,
                 nbytes, dtype, replicas) in self._events
        ]
        return {
            "schema": MEMORY_SCHEMA,
            "meta": dict(meta),
            "logical": {
                "clock": self._seq,
                "live_bytes": self._live_bytes,
                "peak_bytes": self._peak_bytes,
                "peak_seq": self._peak_seq,
                "components": components,
                "phases": phases,
                "events_dropped": self._events_dropped,
            },
            "physical": {
                "live_bytes": self._phys_live,
                "peak_bytes": self._phys_peak,
                "attached_bytes": self._attached_bytes,
                "attach_events": self._attach_events,
            },
            "events": events,
        }

    def to_json(self, *, indent: Optional[int] = 2, **meta) -> str:
        return json.dumps(self.to_snapshot(**meta), indent=indent,
                          sort_keys=True)

    # -- Chrome trace view -------------------------------------------------

    def chrome_events(self, *, pid: int = PID_MEMORY) -> List[dict]:
        """Counter ("C") events replaying the report, one per event.

        ``ts`` is the report's logical clock (the event sequence
        number); each counter sample carries the per-component live
        bytes *after* the event, so the lane renders as a stacked
        live-bytes area chart in Perfetto.  Deterministic: component
        keys are sorted and every component seen so far is present in
        every sample (absent = 0) so the series never re-orders.
        """
        if not self._events:
            return []
        events: List[dict] = [
            {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
             "args": {"name": "memory ledger (logical bytes)"}},
            {"ph": "M", "name": "thread_name", "pid": pid, "tid": 0,
             "args": {"name": "live bytes"}},
        ]
        comps = sorted({ev[3] for ev in self._events})
        running = {c: 0 for c in comps}
        sizes: Dict[int, int] = {}
        for (seq, kind, handle, component, _what, _phase,
             nbytes, _dtype, _replicas) in self._events:
            if kind == "alloc":
                running[component] += nbytes
                sizes[handle] = nbytes
            elif kind == "free":
                running[component] -= nbytes
                sizes.pop(handle, None)
            else:  # resize: nbytes is the new size, delta = new - old
                running[component] += nbytes - sizes.get(handle, nbytes)
                sizes[handle] = nbytes
            events.append({
                "ph": "C", "name": "mem_live_bytes", "cat": "memory",
                "pid": pid, "tid": 0, "ts": float(seq),
                "args": {c: running[c] for c in comps},
            })
        return events

    def to_chrome_trace(self, **meta) -> dict:
        """A standalone Chrome trace document of the memory lanes.

        Tagged with the profile's schema so the existing
        ``validate_chrome_trace`` accepts it (counter events carry no
        durations, so the lane contracts hold trivially).
        """
        events = self.chrome_events()
        if not events:
            events = [
                {"ph": "M", "name": "process_name", "pid": PID_MEMORY,
                 "tid": 0, "args": {"name": "memory ledger (empty)"}},
                {"ph": "M", "name": "thread_name", "pid": PID_MEMORY,
                 "tid": 0, "args": {"name": "live bytes"}},
                {"ph": "C", "name": "mem_live_bytes", "cat": "memory",
                 "pid": PID_MEMORY, "tid": 0, "ts": 0.0, "args": {}},
            ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "schema": PROFILE_SCHEMA,
                "view": "memory",
                "num_threads": 1,
                **meta,
            },
        }


# -- validation ----------------------------------------------------------------


def validate_memory_doc(doc: dict) -> Dict[str, object]:
    """Structural validation of a ``repro.memory/1`` document.

    Checks the schema tag, required sections, non-negative byte counts
    and — when the full event list is present — that replaying the
    events reproduces the live/peak totals exactly.  Returns summary
    statistics; raises ``ValueError`` on the first violation.
    """
    if not isinstance(doc, dict):
        raise ValueError("memory document must be a JSON object")
    if doc.get("schema") != MEMORY_SCHEMA:
        raise ValueError(
            f"unsupported memory schema {doc.get('schema')!r} "
            f"(expected {MEMORY_SCHEMA!r})")
    for key in ("logical",):
        if key not in doc:
            raise ValueError(f"memory document missing {key!r}")
    logical = doc["logical"]
    for key in ("clock", "live_bytes", "peak_bytes", "components",
                "phases"):
        if key not in logical:
            raise ValueError(f"logical section missing {key!r}")
    if logical["peak_bytes"] < logical["live_bytes"] and \
            logical["live_bytes"] > 0:
        raise ValueError("peak_bytes below live_bytes")
    for comp, stats in logical["components"].items():
        if stats["peak_bytes"] < 0:
            raise ValueError(f"component {comp!r} has negative peak")
    events = doc.get("events")
    replayed = None
    if events and not logical.get("events_dropped"):
        live = 0
        peak = 0
        sizes: Dict[int, int] = {}
        for ev in events:
            if ev["kind"] == "alloc":
                live += ev["nbytes"]
                sizes[ev["handle"]] = ev["nbytes"]
            elif ev["kind"] == "free":
                live -= ev["nbytes"]
                sizes.pop(ev["handle"], None)
            else:
                live += ev["nbytes"] - sizes.get(ev["handle"], ev["nbytes"])
                sizes[ev["handle"]] = ev["nbytes"]
            peak = max(peak, live)
        if live != logical["live_bytes"]:
            raise ValueError(
                f"event replay live {live} != reported "
                f"{logical['live_bytes']}")
        if peak != logical["peak_bytes"]:
            raise ValueError(
                f"event replay peak {peak} != reported "
                f"{logical['peak_bytes']}")
        replayed = len(events)
    return {
        "clock": logical["clock"],
        "live_bytes": logical["live_bytes"],
        "peak_bytes": logical["peak_bytes"],
        "components": len(logical["components"]),
        "phases": len(logical["phases"]),
        "events_replayed": replayed,
    }
