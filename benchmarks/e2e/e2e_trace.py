"""Spans for the traced run, recorded from outside the program.

The traced run measures each layer at its boundary: :func:`installed`
replaces the layers' public functions with thin wrappers that open a span
on entry and close it on return, and puts every original back on exit.
Nothing under ``src/`` knows it is being traced, so the untraced runs that
give the end-to-end metrics execute exactly the shipped code.

Spans are kept in memory and written once, by the caller, at exit.  Each
span records its name, start and end (seconds since the recorder's
epoch), the id of its parent span, the id of the timed operation it
belongs to and the counts taken at that boundary.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional

import numpy as np

#: Phases of a Leiden pass, in the order the paper's Fig. 7 splits them.
PHASES = ("local_move", "refine", "aggregate", "other")

#: Kernels of ``KernelWorkspace`` wrapped in the traced run.  (Its fourth,
#: ``compact``, has no caller, so an optimisation cannot move it.)
KERNELS = ("pair_sums", "argmax", "scatter_add")

#: Request kinds whose ``PartitionServer.step`` time is reported.
STEP_KINDS = ("detect", "query", "update")

#: Operation id of spans recorded while inputs are generated.
SETUP_OP = -1


class SpanRecorder:
    """In-memory span stack for one single-threaded traced run."""

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.spans: List[dict] = []
        self._stack: List[tuple] = []
        self._next_id = 0
        #: Id of the timed operation spans are currently attributed to.
        self.op: Optional[int] = None
        #: Solve kind (detect / refresh / reconcile) the partition server
        #: announced through its fault hook for the next ``leiden`` call.
        self.solve_kind: Optional[str] = None

    def note_solve(self, op: str, attempt: int) -> None:
        """``PartitionServer`` fault hook: remember which solve is next."""
        self.solve_kind = op

    def open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((self._next_id, name, parent, time.perf_counter()))
        self._next_id += 1

    def close(self, counts: Callable[[], dict] | None = None,
              name: str | None = None, keep: bool = True) -> None:
        """Close the innermost span; ``counts`` is evaluated after the end
        time is taken, so its cost falls outside the span."""
        end = time.perf_counter()
        sid, opened, parent, start = self._stack.pop()
        if keep:
            self.spans.append({
                "id": sid,
                "name": name or opened,
                "parent": parent,
                "op": self.op,
                "start": start - self.epoch,
                "end": end - self.epoch,
                "counts": counts() if counts is not None else {},
            })

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}))


def self_times(spans: Iterable[dict]) -> Dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    spans = list(spans)
    children: Dict[int, List[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


# -- the wrappers --------------------------------------------------------


def _graph_counts(a, k, out) -> dict:
    graph = out[0] if isinstance(out, tuple) else out
    return {"vertices": int(graph.num_vertices), "edges": int(graph.num_edges)}


def _leiden_counts(rec: SpanRecorder):
    from repro.parallel.costmodel import PAPER_MACHINE

    def counts(a, k, out) -> dict:
        model = out.modeled_time(PAPER_MACHINE, PAPER_MACHINE.max_threads)
        kind, rec.solve_kind = rec.solve_kind, None
        return {"passes": out.num_passes, "solve_kind": kind,
                "model": dict(model.phase_seconds)}
    return counts


def _pool_run_counts(a, k, out) -> dict:
    pool = a[0]
    busy = [0.0] * pool.num_workers
    for r in out:
        busy[r.worker_id] += r.seconds
    return {"tasks": len(out), "workers": pool.num_workers, "busy": busy}


def _targets(rec: SpanRecorder) -> Dict[str, list]:
    """Layer -> ``(owner, attribute, span name, counts)`` to wrap.

    Functions imported by name into a caller's namespace are wrapped
    where that caller looks them up (``repro.core.leiden.refine_batch``,
    ``repro.service.server.apply_batch``, ...).
    """
    mod = importlib.import_module
    from repro.core.workspace import KernelWorkspace
    from repro.parallel.procpool import ProcessPool
    from repro.parallel.shm import ShmArena
    from repro.service.index import CommunityIndex
    from repro.service.server import PartitionServer

    core, server = mod("repro.core.leiden"), mod("repro.service.server")
    datasets, registry = mod("repro.datasets"), mod("repro.datasets.registry")
    leiden_counts = _leiden_counts(rec)
    return {
        "datasets": [
            (owner, fn, "datasets.gen", _graph_counts)
            for owner, fns in ((datasets, ("lfr_like_graph", "kmer_graph")),
                               (registry, ("lfr_like_graph", "kmer_graph",
                                           "road_network",
                                           "stochastic_block_model")))
            for fn in fns
        ],
        "core": [
            (core, "leiden", "leiden", leiden_counts),
            (server, "leiden", "leiden", leiden_counts),
            (core, "local_move_batch", "local_move",
             lambda a, k, out: {"iterations": int(out[0])}),
            (core, "local_move_process", "local_move",
             lambda a, k, out: {"iterations": int(out[0])}),
            (core, "refine_batch", "refine",
             lambda a, k, out: {"moves": int(out)}),
            (core, "aggregate_batch", "aggregate",
             lambda a, k, out: {"vertices_in": int(a[0].num_vertices),
                                "vertices_out": int(out.num_vertices)}),
            (KernelWorkspace, "pair_sums", "kernel.pair_sums",
             lambda a, k, out: {"elems": int(len(a[1]))}),
            (KernelWorkspace, "argmax", "kernel.argmax",
             lambda a, k, out: {"elems": int(len(a[1]))}),
            (KernelWorkspace, "scatter_add", "kernel.scatter_add",
             lambda a, k, out: {"elems": int(len(a[2]))}),
            (mod("repro.core.local_move"), "color_graph", "coloring", None),
            (mod("repro.core.local_move_process"), "color_graph", "coloring",
             None),
        ],
        "parallel": [
            (ProcessPool, "run", "procpool.run", _pool_run_counts),
            (ProcessPool, "bind", "procpool.bind", None),
            (ProcessPool, "release", "procpool.release", None),
            (ShmArena, "create", "shm.create",
             lambda a, k, out: {"bytes": int(out.nbytes)}),
            (ShmArena, "from_array", "shm.from_array", None),
        ],
        "service": [
            (server, "apply_batch", "dynamic.apply_batch", None),
            (server, "affected_vertices", "dynamic.affected_vertices",
             lambda a, k, out: {"affected_frac": float(out.mean())
                                if out.shape[0] else 0.0}),
            (PartitionServer, "step", "service.step", None),
            (PartitionServer, "drain", "service.drain", None),
            (CommunityIndex, "community_of", "index.community_of", None),
            (CommunityIndex, "members_slice", "index.members_slice", None),
            (CommunityIndex, "neighbor_communities",
             "index.neighbor_communities", None),
        ],
    }


#: Layers wrapped around a traced timed operation.
ALL_LAYERS = ("datasets", "core", "parallel", "service")


def _wrap(rec: SpanRecorder, fn: Callable, name: str, counts) -> Callable:
    if name == "service.step":
        # The kind is known only from the ticket the step returns; idle
        # steps (the client polling an empty queue) are not kept.
        @functools.wraps(fn)
        def step(*a, **k):
            rec.open(name)
            out = None
            try:
                out = fn(*a, **k)
                return out
            finally:
                rec.close(name=f"service.step.{out.kind}" if out else None,
                          keep=out is not None)
        return step

    @functools.wraps(fn)
    def wrapper(*a, **k):
        rec.open(name)
        out = ok = None
        try:
            out = fn(*a, **k)
            ok = True
            return out
        finally:
            rec.close((lambda: counts(a, k, out)) if counts and ok else None)
    return wrapper


@contextmanager
def installed(rec: Optional[SpanRecorder], layers: Iterable[str] = ALL_LAYERS,
              op: Optional[int] = None) -> Iterator[None]:
    """Wrap ``layers`` for the duration of the block, attributing spans to
    timed operation ``op``; restores every original on exit.  A ``None``
    recorder makes this a no-op, so untraced code shares the call site."""
    if rec is None:
        yield
        return
    table = _targets(rec)
    saved = []
    try:
        for layer in layers:
            for owner, attr, name, counts in table[layer]:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, _wrap(rec, original, name, counts))
        rec.op = op
        yield
    finally:
        rec.op = None
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- per-layer metrics -----------------------------------------------------


def layer_metrics(rec: SpanRecorder, *, timed_ops: int, setups: int,
                  at: Callable[[np.ndarray], np.ndarray],
                  extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of a traced run, per timed operation.

    ``timed_ops`` traced operations carry spans with ids ``0..n-1``;
    ``setups`` set-ups carry :data:`SETUP_OP`.  ``at`` maps span stamps
    onto the timeline durations are measured on (the workload's scaled
    clock).  ``extra`` supplies numbers taken outside the spans (server
    counters, warm-up time, overhead).
    """
    stamps = at(np.array([(s["start"], s["end"]) for s in rec.spans]
                         ).reshape(-1, 2))
    spans = [{**s, "start": float(a), "end": float(b)}
             for s, (a, b) in zip(rec.spans, stamps)]
    timed = [s for s in spans if s["op"] is not None and s["op"] >= 0]
    selfs = self_times(timed)
    by_name: Dict[str, List[dict]] = {}
    for s in timed:
        by_name.setdefault(s["name"], []).append(s)
    n = max(timed_ops, 1)

    def dur(name: str) -> float:
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def count(name: str, key: str) -> float:
        return sum(s["counts"].get(key, 0) for s in by_name.get(name, ()))

    def ratio(a: float, b: float) -> float:
        return a / b if b > 0 else 0.0

    gen = sum(s["end"] - s["start"] for s in spans
              if s["op"] == SETUP_OP and s["name"] == "datasets.gen")
    solves = by_name.get("leiden", [])
    solve_s = dur("leiden")
    other_s = sum(selfs[s["id"]] for s in solves)
    phase_s = {"local_move": dur("local_move"), "refine": dur("refine"),
               "aggregate": dur("aggregate"), "other": other_s}
    model = {p: sum(s["counts"]["model"].get(p, 0.0) for s in solves)
             for p in PHASES}
    model_total = sum(model.values())
    aggs = by_name.get("aggregate", [])
    runs = by_name.get("procpool.run", [])
    busy = sum(sum(s["counts"]["busy"]) for s in runs)
    wait_workers = sum((s["end"] - s["start"]) * s["counts"]["workers"]
                       for s in runs)
    imbalance = [ratio(max(s["counts"]["busy"]),
                       statistics.fmean(s["counts"]["busy"])) for s in runs]
    affected = by_name.get("dynamic.affected_vertices", [])

    def kind_s(kind: str) -> float:
        return sum(s["end"] - s["start"] for s in solves
                   if s["counts"]["solve_kind"] == kind)

    out = {
        "datasets.gen_s": gen / max(setups, 1),
        "leiden.calls": len(solves) / n,
        "leiden.s": solve_s / n,
        "leiden.passes": count("leiden", "passes") / n,
        "leiden.other_s": other_s / n,
        "local_move.s": phase_s["local_move"] / n,
        "local_move.iters": count("local_move", "iterations") / n,
        "refine.s": phase_s["refine"] / n,
        "refine.moves": count("refine", "moves") / n,
        "aggregate.s": phase_s["aggregate"] / n,
        "aggregate.shrink": statistics.fmean(
            s["counts"]["vertices_out"] / max(s["counts"]["vertices_in"], 1)
            for s in aggs) if aggs else 0.0,
    }
    for k in KERNELS:
        out[f"kernel.{k}.calls"] = len(by_name.get(f"kernel.{k}", ())) / n
        out[f"kernel.{k}.s"] = dur(f"kernel.{k}") / n
        out[f"kernel.{k}.elems"] = count(f"kernel.{k}", "elems") / n
    out.update({
        "coloring.calls": len(by_name.get("coloring", ())) / n,
        "coloring.s": dur("coloring") / n,
        "procpool.tasks": count("procpool.run", "tasks") / n,
        "procpool.run_wait_s": dur("procpool.run") / n,
        "procpool.worker_busy_s": busy / n,
        "procpool.utilisation": ratio(busy, wait_workers),
        "procpool.imbalance": statistics.fmean(imbalance) if imbalance else 0.0,
        "procpool.bind_s": dur("procpool.bind") / n,
        "shm.bytes": count("shm.create", "bytes") / n,
        "core.serial_frac": ratio(
            phase_s["refine"] + phase_s["aggregate"] + other_s, solve_s),
    })
    for p in PHASES:
        out[f"core.real_share.{p}"] = ratio(phase_s[p], solve_s)
    for p in PHASES:
        out[f"core.model_share.{p}"] = ratio(model[p], model_total)
    out.update({
        "dynamic.apply_s": dur("dynamic.apply_batch") / n,
        "dynamic.affected_frac": statistics.fmean(
            s["counts"]["affected_frac"] for s in affected) if affected else 0.0,
    })
    for kind in STEP_KINDS:
        out[f"service.step.{kind}.s"] = dur(f"service.step.{kind}") / n
    out.update({
        "service.detect.s": kind_s("detect") / n,
        "service.refresh.calls": sum(
            1 for s in solves if s["counts"]["solve_kind"] == "refresh") / n,
        "service.refresh.s": kind_s("refresh") / n,
        "service.reconcile.s": kind_s("reconcile") / n,
        "index.calls": sum(len(v) for k, v in by_name.items()
                           if k.startswith("index.")) / n,
        "index.s": sum(dur(k) for k in by_name if k.startswith("index.")) / n,
    })
    out.update(extra)
    return out
