"""Analysis over thread timelines: attribution and the text report.

Consumes a :class:`~repro.observability.profiler.Timeline` and (for the
convergence section) a ``repro.trace/2`` trace document, and computes
the figures the paper's evaluation leans on:

- **per-phase attribution** — modelled seconds per phase split into busy
  work on the critical path, barrier-wait caused by load skew, and the
  modelled barrier cost itself;
- **load-imbalance factor** — max/mean busy seconds across threads, per
  phase and per region;
- **scheduling-policy attribution** — seconds and imbalance grouped by
  the OpenMP-style schedule kind that produced them;
- **top-N regions** — the individual parallel-for instances that
  dominate the critical path;
- **convergence monitor** — per-pass ΔQ / vertices-visited / refinement
  splits / aggregation shrink extracted from the trace tree's series.

All output is deterministic: orderings are (value, name) sorted with
fixed float formatting, so two runs at the same seed render the same
bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.observability.profiler import Timeline

__all__ = [
    "PhaseStats",
    "RegionStats",
    "ScheduleStats",
    "analyze_timeline",
    "convergence_rows",
    "format_profile_report",
]


@dataclass
class PhaseStats:
    """Attribution of one phase's modelled time."""

    phase: str
    seconds: float            # sum of region spans (incl. barrier)
    busy_seconds: float       # sum over threads of busy time
    critical_busy: float      # per-region max thread busy, summed
    barrier_wait: float       # skew wait: threads idle before the barrier
    barrier_cost: float       # modelled barrier cost
    regions: int
    imbalance: float          # max/mean busy across threads (phase total)


@dataclass
class RegionStats:
    """One region row for the top-N table."""

    index: int
    label: str
    phase: str
    schedule: str
    chunks: int
    seconds: float
    imbalance: float
    barrier_share: float      # (wait + cost) / span
    slowest_tid: int


@dataclass
class ScheduleStats:
    """Seconds and skew grouped by scheduling policy."""

    kind: str
    regions: int
    seconds: float
    barrier_wait: float
    efficiency: float         # mean busy / max busy (1.0 = perfect)


def analyze_timeline(
    timeline: Timeline,
) -> Tuple[List[PhaseStats], List[RegionStats], List[ScheduleStats]]:
    """Compute per-phase, per-region, and per-schedule attribution."""
    T = timeline.num_threads
    phase_busy: Dict[str, np.ndarray] = {}
    phase_acc: Dict[str, PhaseStats] = {}
    sched_acc: Dict[str, ScheduleStats] = {}
    sched_busy: Dict[str, np.ndarray] = {}
    region_rows: List[RegionStats] = []
    for r in timeline.regions:
        phase = r.record.phase
        ps = phase_acc.get(phase)
        if ps is None:
            ps = phase_acc[phase] = PhaseStats(
                phase, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0.0)
            phase_busy[phase] = np.zeros(T)
        ps.seconds += r.seconds
        ps.busy_seconds += float(r.busy.sum())
        ps.critical_busy += float(r.busy.max())
        ps.barrier_wait += r.imbalance_wait
        ps.barrier_cost += r.barrier_cost * T
        ps.regions += 1
        phase_busy[phase] += r.busy

        kind = (r.record.schedule.kind if r.record.kind == "parallel"
                else "serial")
        ss = sched_acc.get(kind)
        if ss is None:
            ss = sched_acc[kind] = ScheduleStats(kind, 0, 0.0, 0.0, 0.0)
            sched_busy[kind] = np.zeros(T)
        ss.regions += 1
        ss.seconds += r.seconds
        ss.barrier_wait += r.imbalance_wait
        sched_busy[kind] += r.busy

        max_busy = float(r.busy.max())
        mean_busy = float(r.busy.mean())
        span = r.seconds
        region_rows.append(RegionStats(
            index=r.record.index,
            label=r.record.label,
            phase=phase,
            schedule=kind,
            chunks=int(r.record.chunk_costs.shape[0]),
            seconds=span,
            imbalance=(max_busy / mean_busy) if mean_busy > 0 else 1.0,
            barrier_share=((r.imbalance_wait / T + r.barrier_cost) / span
                           if span > 0 else 0.0),
            slowest_tid=int(np.argmax(r.busy)),
        ))
    for phase, ps in phase_acc.items():
        busy = phase_busy[phase]
        mean = float(busy.mean())
        ps.imbalance = (float(busy.max()) / mean) if mean > 0 else 1.0
    for kind, ss in sched_acc.items():
        busy = sched_busy[kind]
        mx = float(busy.max())
        ss.efficiency = (float(busy.mean()) / mx) if mx > 0 else 1.0
    phases = sorted(phase_acc.values(),
                    key=lambda p: (-p.seconds, p.phase))
    regions = sorted(region_rows, key=lambda r: (-r.seconds, r.index))
    scheds = sorted(sched_acc.values(), key=lambda s: (-s.seconds, s.kind))
    return phases, regions, scheds


def _walk_spans(spans: Sequence[dict]):
    for s in spans:
        yield s
        yield from _walk_spans(s.get("children", ()))


def convergence_rows(trace_doc: dict) -> List[dict]:
    """Extract the convergence monitor from a ``repro.trace/2`` document.

    One row per Leiden pass: modularity delta per local-moving iteration,
    vertices processed (pruning effectiveness), refinement split count,
    and aggregation shrink ratio — read from span attrs and series.
    """
    rows: List[dict] = []
    for span in _walk_spans(trace_doc.get("spans", ())):
        if span.get("name") != "pass":
            continue
        series: Dict[str, List[float]] = {}
        for child in _walk_spans(span.get("children", ())):
            for key, values in child.get("series", {}).items():
                series.setdefault(key, []).extend(values)
        for key, values in span.get("series", {}).items():
            series.setdefault(key, []).extend(values)
        counters: Dict[str, float] = {}
        for child in _walk_spans([span]):
            for key, value in child.get("counters", {}).items():
                counters[key] = counters.get(key, 0.0) + value
        dq = series.get("move_delta_q", [])
        visited = series.get("move_visited", [])
        shrink = series.get("aggregation_shrink", [])
        rows.append({
            "pass": span.get("attrs", {}).get("index", len(rows)),
            "iterations": len(dq),
            "delta_q": float(sum(dq)),
            "delta_q_series": [float(v) for v in dq],
            "visited": float(sum(visited)),
            "visited_series": [float(v) for v in visited],
            "pruning_skipped": counters.get("pruning_skipped", 0.0),
            "refine_splits": float(sum(series.get("refine_splits", []))),
            "shrink_ratio": float(shrink[-1]) if shrink else float("nan"),
            "communities": span.get("attrs", {}).get("communities"),
        })
    rows.sort(key=lambda r: r["pass"])
    return rows


def format_profile_report(
    timeline: Timeline,
    *,
    trace_doc: Optional[dict] = None,
    top: int = 5,
    title: str = "",
) -> str:
    """Render the deterministic text report of a timeline (a recorded
    run's ``profile.txt``)."""
    phases, regions, scheds = analyze_timeline(timeline)
    T = timeline.num_threads
    total = timeline.total_seconds
    lines: List[str] = []
    header = f"profile: {title}" if title else "profile"
    lines.append(header)
    lines.append("=" * len(header))
    lines.append(f"machine: {timeline.machine.name}  threads: {T}  "
                 f"modelled total: {total * 1e3:.4f} ms  "
                 f"regions: {len(timeline.regions)}")
    lines.append("")
    lines.append("per-phase attribution (modelled seconds)")
    lines.append(f"  {'phase':<12} {'seconds':>12} {'share':>7} "
                 f"{'critical':>12} {'barrier-wait':>13} {'imbalance':>10} "
                 f"{'regions':>8}")
    for p in phases:
        share = p.seconds / total if total > 0 else 0.0
        # barrier-wait share: idle thread-seconds (skew + barrier cost)
        # as a fraction of this phase's total thread-seconds.
        denom = p.seconds * T
        wait_share = ((p.barrier_wait + p.barrier_cost) / denom
                      if denom > 0 else 0.0)
        lines.append(
            f"  {p.phase:<12} {p.seconds * 1e3:10.4f} ms {share:6.1%} "
            f"{p.critical_busy * 1e3:10.4f} ms {wait_share:12.1%} "
            f"{p.imbalance:9.3f}x {p.regions:8d}")
    lines.append("")
    lines.append("scheduling-policy attribution")
    lines.append(f"  {'policy':<9} {'regions':>8} {'seconds':>12} "
                 f"{'efficiency':>11}")
    for s in scheds:
        lines.append(f"  {s.kind:<9} {s.regions:8d} "
                     f"{s.seconds * 1e3:10.4f} ms {s.efficiency:10.1%}")
    lines.append("")
    busy = timeline.thread_busy_seconds()
    mean = float(busy.mean()) if T else 0.0
    imb = (float(busy.max()) / mean) if mean > 0 else 1.0
    util = (mean / total) if total > 0 else 0.0
    lines.append(f"threads: busy mean {mean * 1e3:.4f} ms, "
                 f"max {float(busy.max()) * 1e3:.4f} ms "
                 f"(imbalance {imb:.3f}x), utilization {util:.1%}")
    lines.append("")
    lines.append(f"top {min(top, len(regions))} regions by modelled span")
    lines.append(f"  {'#':>4} {'label':<34} {'policy':<8} {'chunks':>6} "
                 f"{'seconds':>12} {'imbal':>7} {'barrier':>8} {'slow':>5}")
    for r in regions[:top]:
        label = r.label if len(r.label) <= 34 else "…" + r.label[-33:]
        lines.append(
            f"  {r.index:>4} {label:<34} {r.schedule:<8} {r.chunks:>6} "
            f"{r.seconds * 1e3:10.4f} ms {r.imbalance:6.2f}x "
            f"{r.barrier_share:7.1%} t{r.slowest_tid:<4}")
    if trace_doc is not None:
        rows = convergence_rows(trace_doc)
        if rows:
            lines.append("")
            lines.append("convergence monitor")
            lines.append(f"  {'pass':>4} {'iters':>6} {'delta-Q':>12} "
                         f"{'visited':>10} {'splits':>8} {'shrink':>8} "
                         f"{'comms':>8}")
            for row in rows:
                shrink = row["shrink_ratio"]
                shrink_s = f"{shrink:8.4f}" if shrink == shrink else "     n/a"
                comms = row["communities"]
                comms_s = f"{comms:8d}" if isinstance(comms, int) else "     n/a"
                lines.append(
                    f"  {row['pass']:>4} {row['iterations']:>6} "
                    f"{row['delta_q']:12.6f} {row['visited']:10.0f} "
                    f"{row['refine_splits']:8.0f} {shrink_s} {comms_s}")
    if timeline.requests:
        lines.append("")
        unit = timeline.machine.time_per_unit
        total_req = sum(r.duration_units for r in timeline.requests) * unit
        lines.append(f"service lane: {len(timeline.requests)} requests, "
                     f"{total_req * 1e3:.4f} ms modelled")
    lines.append("")
    return "\n".join(lines)
