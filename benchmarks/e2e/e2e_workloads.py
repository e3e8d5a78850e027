"""The four workloads of the wall-clock benchmark.

Every workload is a closed loop with one client: one process, plus the
two pool workers of ``solve-web-proc2``.  Each function builds its inputs
from ``seed`` alone, sets up :data:`SETUP_REPEATS` times (once when
traced), then repeats its timed operation until ``seconds`` are spent,
and finally checks every output outside the timed region.  Graph sizes are keyword arguments so
the self-test can run the same code on small graphs.

Only public APIs are called: the dataset generators, ``leiden``,
``Runtime``, ``PartitionServer.submit/step/drain/stats`` and
``repro.metrics``.
"""

from __future__ import annotations

import importlib
import multiprocessing
import resource
import signal
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import e2e_trace
import numpy as np

import repro.datasets as datasets
from repro.core.config import LeidenConfig
from repro.datasets import registry
from repro.dynamic.batch import apply_batch, random_batch
from repro.metrics import disconnected_communities, modularity
from repro.parallel.costmodel import PAPER_MACHINE
from repro.parallel.runtime import Runtime
from repro.service.requests import (
    DONE,
    UPDATE,
    DetectRequest,
    QueryRequest,
    UpdateRequest,
    coalesce_update_batches,
)
from repro.service.server import PartitionServer

# ``leiden`` is called through its module, so the traced run's wrapper is
# seen.  (``repro.core`` re-exports the function under the module's name,
# which hides the module from ``import repro.core.leiden as ...``.)
core_leiden = importlib.import_module("repro.core.leiden")

#: Set-ups per untraced run; ``setup_s`` is their median.  A traced run
#: sets up once: it reports no ``setup_s``.
SETUP_REPEATS = 3
#: Fewest timed operations a run makes, whatever ``seconds`` says.
MIN_SOLVES = 3
MIN_STREAMS = 1
#: How often :class:`HostClock` samples the host's speed.
SAMPLE_PERIOD_S = 0.05
#: The reference loop's time on an unloaded core of a 2-vCPU Xeon VM;
#: scaled times are wall times at that host speed.
REF_NOMINAL_S = 0.0005

#: uk-2002 stand-in at 8x the registry size (131k V, 1.70M stored edges).
WEB = dict(avg_degree=16.1, mixing=0.06, min_community=80,
           max_community_fraction=0.06)
#: kmer_V1r stand-in at 8x the registry size (800k V, 1.70M edges).
KMER = dict(chain_length=25, branch_probability=0.10)
#: Registry stand-ins the server holds: one graph per class.
SERVE_GRAPHS = ("uk-2002", "com-LiveJournal", "europe_osm", "kmer_V1r")
#: The graph of the warm-up stream, and the UPDATEs per burst.
SERVE_WARM_GRAPH = "asia_osm"
SERVE_BURST_SIZE = 4
#: Share of the queries and bursts a traced ``serve-mixed`` run serves.
#: It serves its stream twice, untraced and traced, within 30 s.
TRACED_STREAM_SHARE = 0.5


class HostClock:
    """Wall time, and wall time scaled to a nominal host speed.

    On shared hosts the speed of a core swings between two levels 1.5x
    apart, every second or so, as neighbours load its sibling
    hyperthread; over ten runs that spreads wall times by 20-40%, more
    than any bound the benchmark may gate on.  So while the clock is
    entered, a timer signal runs a fixed pure-Python reference loop every
    :data:`SAMPLE_PERIOD_S`; it shares no code with the repository, and
    its time tracks a solve's slow-down 1:1 on such hosts.  The loop runs
    in this process's thread, which pauses for it, and is skipped while a
    pool worker in :attr:`workers` is runnable: nothing of the workload
    runs beside a sample, so the workload cannot slow it.  An interval's
    scaled length is its wall time with each stretch between two samples
    multiplied by ``REF_NOMINAL_S`` over the mean of those two samples.
    Samples count in neither the scaled nor the raw length.
    """

    def __init__(self) -> None:
        self._starts: List[float] = []
        self._ends: List[float] = []
        self.samples: List[float] = []
        self._lines: Dict[bool, tuple] = {}
        #: Process ids of the pool workers, kept current by :class:`_Idle`.
        self.workers: List[int] = []

    def _sample(self, *_signal) -> None:
        if any(_runnable(pid) for pid in self.workers):
            return
        t0 = time.perf_counter()
        s = 0
        for i in range(10000):
            s += i & 7
        t1 = time.perf_counter()
        self._starts.append(t0)
        self._ends.append(t1)
        self.samples.append(t1 - t0)

    def __enter__(self) -> "HostClock":
        self._sample()
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.workers = []
        self._sample()

    def at(self, stamps, scaled: bool = True) -> np.ndarray:
        """Map ``perf_counter`` stamps onto the scaled (or raw) timeline,
        on which lengths are differences.  The timeline stands still
        during samples; between two it advances at 1 (raw) or at
        ``REF_NOMINAL_S`` over the mean of the two (scaled)."""
        if scaled not in self._lines:
            s = np.array(self.samples)
            near = np.concatenate([s[:1], (s[:-1] + s[1:]) / 2, s[-1:]])
            slope = REF_NOMINAL_S / near if scaled else np.ones(s.shape[0] + 1)
            x = np.column_stack([self._starts, self._ends]).ravel()
            steps = np.zeros(x.shape[0] - 1)
            steps[1::2] = (x[2::2] - x[1:-1:2]) * slope[1:-1]
            self._lines[scaled] = (x, np.concatenate([[0.0], np.cumsum(steps)]),
                                   slope)
        x, y, slope = self._lines[scaled]
        t = np.asarray(stamps, dtype=np.float64)
        return np.where(t < x[0], (t - x[0]) * slope[0],
                        np.where(t > x[-1], y[-1] + (t - x[-1]) * slope[-1],
                                 np.interp(t, x, y)))

    def scaled(self, t0: float, t1: float) -> float:
        a, b = self.at([t0, t1])
        return float(b - a)

    def raw(self, t0: float, t1: float) -> float:
        a, b = self.at([t0, t1], scaled=False)
        return float(b - a)

    def speed(self) -> float:
        """Median host speed over the run; 1.0 is nominal."""
        return REF_NOMINAL_S / statistics.median(self.samples)


@dataclass
class Checks:
    """Operations checked and the ones that failed (``error_rate``)."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, label: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")


def partition_problems(graph, membership) -> List[str]:
    """What is wrong with ``membership`` as a Leiden result on ``graph``:
    its length is V, its ids are exactly 0..k-1, and every community is
    internally connected."""
    m = np.asarray(membership)
    n = graph.num_vertices
    if m.shape != (n,):
        return [f"membership has shape {m.shape}, want ({n},)"]
    if n == 0:
        return []
    if m.min() < 0 or np.bincount(m).min() == 0:
        return ["community ids are not exactly 0..k-1"]
    bad = disconnected_communities(graph, m).num_disconnected
    return [f"{bad} disconnected communities"] if bad else []


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    workload: str
    #: End-to-end metrics (every ``end_to_end`` name of BENCHMARK.json).
    metrics: Dict[str, float]
    #: Ungated numbers: raw wall times, workload-specific latencies,
    #: phase shares, counts.
    detail: Dict[str, object]
    checks: Checks
    #: Per-layer metrics (traced runs only).
    layers: Dict[str, float] = field(default_factory=dict)
    recorder: Optional[e2e_trace.SpanRecorder] = None


def _runnable(pid: int) -> bool:
    """Whether process ``pid`` is running or waiting for a core."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "R"
    except (OSError, IndexError):  # the process has just exited
        return False


def _private_mib(pid: int) -> float:
    """Memory of process ``pid`` that it shares with no other process,
    from ``/proc/<pid>/smaps_rollup``."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            return sum(int(line.split()[1]) for line in f
                       if line.startswith(("Private_Clean:",
                                           "Private_Dirty:"))) / 1024.0
    except OSError:  # the process has just exited
        return 0.0


class _Idle:
    """Called between set-ups and timed operations, while the workload is
    idle: tells the clock the pool workers' ids and samples their private
    memory."""

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        self.workers_mib = 0.0

    def __call__(self) -> None:
        self.clock.workers = [c.pid for c in multiprocessing.active_children()]
        self.workers_mib = max(self.workers_mib, sum(
            _private_mib(pid) for pid in self.clock.workers))

    def peak_rss_mib(self) -> float:
        """Peak resident set of this process, plus the workers' largest
        private memory seen between operations.  Pages a worker shares
        with this process (copy-on-write pages after ``fork``,
        shared-memory segments) count once, in this process's peak."""
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return own + self.workers_mib


def _timed(op: Callable[[bool], object], keep: Callable[[object, bool], None],
           minimum: int, seconds: float, rec, idle: _Idle) -> List[tuple]:
    """Repeat the timed operation ``op(traced)`` at least ``minimum``
    times, and while the next run is expected to end within ``seconds``.

    With a recorder, runs alternate untraced and traced (at least
    ``minimum`` of each); traced runs execute under the layer wrappers.
    ``keep(result, traced)`` and ``idle()`` run outside the timed region.
    Returns ``(start, end, traced)`` per run.
    """
    runs: List[tuple] = []
    started = time.perf_counter()

    def count(traced: bool) -> int:
        return sum(1 for r in runs if r[2] == traced)

    while True:
        typical = statistics.median([b - a for a, b, _ in runs] or [0.0])
        untraced_due = (count(False) < minimum
                        or time.perf_counter() - started + typical <= seconds)
        traced_due = rec is not None and count(True) < minimum
        if not (untraced_due or traced_due):
            return runs
        traced = rec is not None and len(runs) % 2 == 1
        with (e2e_trace.installed(rec, op=count(True))
              if traced else nullcontext()):
            t0 = time.perf_counter()
            result = op(traced)
            t1 = time.perf_counter()
        runs.append((t0, t1, traced))
        idle()
        keep(result, traced)
        del result  # before the next run, so it does not count in its peak


def _shares(seconds: Dict[str, float]) -> Dict[str, float]:
    total = sum(seconds.values())
    return {p: seconds.get(p, 0.0) / total if total > 0 else 0.0
            for p in e2e_trace.PHASES}


def _setup(rec, build: Callable[[], object], warm: Callable[[object], None],
           idle: _Idle):
    """Set up :data:`SETUP_REPEATS` times (once when traced); keep the
    last state.

    ``build`` generates the inputs and execution context, ``warm`` runs
    the warm-up operation on them.  Returns the state and, per set-up,
    the stamps (start, inputs built, warmed up).
    """
    stamps, state = [], None
    idle()
    for _ in range(1 if rec is not None else SETUP_REPEATS):
        if state is not None and hasattr(state, "close"):
            state.close()
        state = None  # let the previous inputs go before building again
        t0 = time.perf_counter()
        with e2e_trace.installed(rec, ("datasets",), op=e2e_trace.SETUP_OP):
            state = build()
        t1 = time.perf_counter()
        warm(state)
        stamps.append((t0, t1, time.perf_counter()))
        idle()
    return state, stamps


def _setup_seconds(clock: HostClock, stamps) -> tuple:
    """Median scaled set-up and warm-up seconds."""
    return (statistics.median(clock.scaled(a, c) for a, _, c in stamps),
            statistics.median(clock.scaled(b, c) for _, b, c in stamps))


def _extra_layers(warmup_s: float, overhead: float,
                  stats: Optional[dict] = None) -> Dict[str, float]:
    """Per-layer numbers taken outside the spans."""
    c = stats["counters"] if stats else {}
    refreshes = c.get("incremental_refreshes", 0) + c.get("full_recomputes", 0)
    return {
        "service.coalesce_ratio": (c["updates_coalesced"] / c["updates_accepted"]
                                   if c.get("updates_accepted") else 0.0),
        "service.incremental_frac": (c["incremental_refreshes"] / refreshes
                                     if refreshes else 0.0),
        "service.stale_frac": (stats["derived"]["stale_serve_fraction"]
                               if stats else 0.0),
        "store.hit_rate": stats["derived"]["cache_hit_rate"] if stats else 0.0,
        "bench.warmup_s": warmup_s,
        "trace.overhead_frac": overhead,
    }


# -- solve workloads ----------------------------------------------------------


@dataclass
class _SolveState:
    graph: object
    warm_graph: object
    runtime: Optional[Runtime]

    def close(self) -> None:
        if self.runtime is not None:
            self.runtime.close()


def _solve(name: str, make_graph: Callable[[int], object], size: int,
           warm_size: int, *, seed: int, seconds: float, workers: int,
           rec: Optional[e2e_trace.SpanRecorder]) -> Outcome:
    """Shared body of the solve workloads: time ``leiden()`` on one graph.

    ``workers == 0`` is the ``batch`` engine with a fresh ``Runtime`` per
    solve; otherwise the ``process`` engine reuses one ``Runtime`` whose
    pool started during set-up, and every membership must equal a
    ``batch`` reference bitwise.
    """
    cfg = LeidenConfig(engine="process" if workers else "batch")
    checks = Checks()
    clock = HostClock()
    idle = _Idle(clock)

    def build() -> _SolveState:
        runtime = (Runtime(num_threads=workers, executor="process",
                           seed=cfg.seed) if workers else None)
        return _SolveState(make_graph(size), make_graph(warm_size), runtime)

    warm_solves: List[tuple] = []

    def warm(state: _SolveState) -> None:
        # A smaller graph of the same family: it runs every code path and
        # starts the pool without paying for a full solve per set-up.
        res = core_leiden.leiden(state.warm_graph, cfg,
                                 runtime=state.runtime or Runtime(seed=cfg.seed))
        warm_solves.append((state.warm_graph, res.membership))

    summaries = []

    def keep(res, traced: bool) -> None:
        if not traced:
            model = res.modeled_time(PAPER_MACHINE, PAPER_MACHINE.max_threads)
            summaries.append((res.membership, res.num_passes,
                              _shares(res.wall_phase_seconds),
                              _shares(model.phase_seconds)))

    state = None
    with clock:
        try:
            state, stamps = _setup(rec, build, warm, idle)
            runs = _timed(
                lambda traced: core_leiden.leiden(
                    state.graph, cfg,
                    runtime=state.runtime or Runtime(seed=cfg.seed)),
                keep, MIN_SOLVES, seconds, rec, idle)
        finally:
            if state is not None:
                state.close()
    peak = idle.peak_rss_mib()
    graph = state.graph
    setup_s, warmup_s = _setup_seconds(clock, stamps)
    times = [clock.scaled(a, b) for a, b, t in runs if not t]
    raw = [b - a for a, b, t in runs if not t]

    for warm_graph, membership in warm_solves:
        checks.record("warm-up solve", partition_problems(warm_graph, membership))
    reference = None
    if workers:
        ref = core_leiden.leiden(graph, LeidenConfig(engine="batch"),
                                 runtime=Runtime(seed=cfg.seed))
        reference = ref.membership
        checks.record("batch reference",
                      partition_problems(graph, reference))
    verdicts: List[tuple] = []  # (membership, problems) already checked
    for i, (membership, *_rest) in enumerate(summaries):
        problems = next((p for m, p in verdicts
                         if np.array_equal(m, membership)), None)
        if problems is None:
            problems = partition_problems(graph, membership)
            verdicts.append((membership, problems))
        if reference is not None and not np.array_equal(membership, reference):
            problems = problems + ["membership differs from the batch engine's"]
        checks.record(f"timed solve {i}", problems)

    first = summaries[0]
    real = {p: statistics.fmean(s[2][p] for s in summaries)
            for p in e2e_trace.PHASES}
    detail = {
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "fingerprint": graph.fingerprint(),
        "solve_s": times,
        "solve_s_median": statistics.median(times),
        "solve_s_raw": raw,
        "solve_s_raw_median": statistics.median(raw),
        "host_speed": clock.speed(),
        "workers_private_mib": idle.workers_mib,
        "passes": first[1],
        "communities": int(first[0].max()) + 1,
        "real_share": real,
        "model_share": first[3],
        "serial_frac": 1.0 - real["local_move"],
        "warmup_s": warmup_s,
        "error_rate": checks.failed / checks.attempted,
    }
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": statistics.median(times) * 1e3,
        "throughput_per_s": graph.num_edges * len(times) / sum(times),
        "peak_rss_mib": peak,
        "modularity": modularity(graph, first[0]),
    }
    outcome = Outcome(name, metrics, detail, checks, recorder=rec)
    if rec is not None:
        traced = [clock.scaled(a, b) for a, b, t in runs if t]
        outcome.layers = e2e_trace.layer_metrics(
            rec, timed_ops=len(traced), setups=len(stamps),
            at=lambda t: clock.at(t + rec.epoch),
            extra=_extra_layers(warmup_s, statistics.median(traced)
                                / statistics.median(times) - 1.0))
    return outcome


def _web_graph(n: int, seed: int):
    return datasets.lfr_like_graph(n, seed=seed, **WEB)[0]


def solve_web(seed: int, seconds: float, *, rec=None,
              vertices: int = 131072, warm_vertices: int = 8192) -> Outcome:
    """Web graph, ``batch`` engine."""
    return _solve("solve-web", lambda n: _web_graph(n, seed), vertices,
                  warm_vertices, seed=seed, seconds=seconds, workers=0, rec=rec)


def solve_kmer(seed: int, seconds: float, *, rec=None,
               chains: int = 32000, warm_chains: int = 2000) -> Outcome:
    """k-mer chain forest, ``batch`` engine."""
    def make(c: int):
        return datasets.kmer_graph(c, KMER["chain_length"], seed=seed,
                                   branch_probability=KMER["branch_probability"])
    return _solve("solve-kmer", make, chains, warm_chains,
                  seed=seed, seconds=seconds, workers=0, rec=rec)


def solve_web_proc2(seed: int, seconds: float, *, rec=None,
                    vertices: int = 131072, warm_vertices: int = 8192) -> Outcome:
    """The web graph of ``solve-web`` on the ``process`` engine, 2 workers."""
    return _solve("solve-web-proc2", lambda n: _web_graph(n, seed), vertices,
                  warm_vertices, seed=seed, seconds=seconds, workers=2, rec=rec)


# -- serve workload -------------------------------------------------------------


@dataclass
class _Plan:
    """One request stream, generated from the seed before it runs."""

    graphs: Dict[str, object]
    #: Per query: graph index, kind draw in [0, 1), Zipf vertex.
    queries: List[tuple]
    #: Query index -> (graph name, update batches) submitted before it.
    bursts: Dict[int, tuple]


def _plan(graphs: Dict[str, object], seed: int, queries: int, bursts: int,
          edges_per_update: int) -> _Plan:
    """The ``repro.service.workload`` mix: Zipf(1.3) vertices, 70%
    community_of / 15% members / 10% neighbor_communities / 5%
    membership, with update bursts spread evenly and rotating over the
    graphs."""
    names = list(graphs)
    rng = np.random.default_rng(seed)
    plan = []
    for _ in range(queries):
        g = int(rng.integers(0, len(names)))
        draw = float(rng.random())
        vertex = (int(rng.zipf(1.3)) - 1) % graphs[names[g]].num_vertices
        plan.append((g, draw, vertex))
    at = [(i + 1) * queries // (bursts + 1) for i in range(bursts)]
    burst_plan = {}
    for b, q in enumerate(at):
        name = names[b % len(names)]
        burst_plan[q] = (name, [
            random_batch(graphs[name], num_insertions=edges_per_update,
                         num_deletions=edges_per_update,
                         seed=seed * 100_003 + 1000 * (b + 1) + j)
            for j in range(SERVE_BURST_SIZE)
        ])
    return _Plan(graphs, plan, burst_plan)


@dataclass
class _Stream:
    """Raw ``perf_counter`` stamps of one stream, and its server."""

    started: float
    ended: float
    tickets: list
    #: (submit, done) per QUERY, and per UPDATE (done = committed).
    queries: List[tuple]
    updates: List[tuple]
    server: PartitionServer
    keys: Dict[str, str]


def _run_stream(srv: PartitionServer, plan: _Plan) -> _Stream:
    """Drive ``srv`` through ``plan``: the client submits, then steps the
    server until it is idle.  UPDATEs complete at the flush that commits
    them, which happens inside a later step."""
    names = list(plan.graphs)
    tickets, submitted, done_at = [], {}, {}
    outstanding: list = []  # UPDATE tickets not yet committed

    def submit(request):
        t = srv.submit(request)
        submitted[t.id] = time.perf_counter()
        tickets.append(t)
        if t.kind == UPDATE:
            outstanding.append(t)
        return t

    def committed(now: float) -> None:
        for u in outstanding:
            if u.done:
                done_at[u.id] = now
        outstanding[:] = [u for u in outstanding if not u.done]

    def settle() -> None:
        while (t := srv.step()) is not None:
            now = time.perf_counter()
            if t.kind == UPDATE:
                committed(now)
            elif t.done:
                done_at[t.id] = now

    queries = []
    started = time.perf_counter()
    detects = [submit(DetectRequest(plan.graphs[n])) for n in names]
    settle()
    keys = {n: t.response["key"] for n, t in zip(names, detects)}
    for i, (g, draw, vertex) in enumerate(plan.queries):
        if i in plan.bursts:
            name, batches = plan.bursts[i]
            for batch in batches:
                submit(UpdateRequest(keys[name], batch))
        key = keys[names[g]]
        if draw < 0.70:
            req = QueryRequest(key, "community_of", vertex=vertex)
        elif draw < 0.85:
            community = int(srv.store.peek(key).membership[vertex])
            req = QueryRequest(key, "members", community=community)
        elif draw < 0.95:
            req = QueryRequest(key, "neighbor_communities", vertex=vertex)
        else:
            req = QueryRequest(key, "membership")
        t = submit(req)
        settle()
        queries.append((submitted[t.id], done_at[t.id]))
    srv.drain()
    ended = time.perf_counter()
    committed(ended)
    updates = [(submitted[t.id], done_at[t.id]) for t in tickets
               if t.kind == UPDATE and t.id in done_at]
    return _Stream(started, ended, tickets, queries, updates, srv, keys)


def _verify_stream(stream: _Stream, plan: _Plan, checks: Checks,
                   scratch: Optional[Dict[str, np.ndarray]]) -> Dict[str, np.ndarray]:
    """Every ticket DONE, and each served membership equal to a fresh
    ``leiden()`` on that graph's final state (computed once, then reused
    for later streams of the same plan)."""
    for t in stream.tickets:
        checks.record(f"{t.kind} ticket {t.id}",
                      [] if t.status == DONE else [f"ended {t.status}"])
    finals = {}
    if scratch is None:
        scratch = {}
        for name, graph in plan.graphs.items():
            # One sequentially-equivalent batch per graph: applying the
            # 48 batches one at a time would cost more than the stream.
            batches = [b for _, (target, bs) in sorted(plan.bursts.items())
                       if target == name for b in bs]
            if batches:
                graph = apply_batch(graph, coalesce_update_batches(batches))
            finals[name] = graph
            scratch[name] = core_leiden.leiden(
                graph, stream.server.config.leiden).membership
    for name, key in stream.keys.items():
        entry = stream.server.store.peek(key)
        problems = []
        if entry is None:
            problems.append("partition evicted")
        else:
            if name in finals and entry.graph != finals[name]:
                problems.append("served graph differs from the updates applied")
            if not np.array_equal(entry.membership, scratch[name]):
                problems.append("served membership differs from a fresh solve")
            problems += partition_problems(entry.graph, entry.membership)
        checks.record(f"served partition {name}", problems)
    return scratch


def serve_mixed(seed: int, seconds: float, *, rec=None,
                graphs=SERVE_GRAPHS, queries: int = 10_000, bursts: int = 48,
                edges_per_update: int = 64,
                fault_hook: Optional[Callable[[str, int], None]] = None) -> Outcome:
    """A default ``PartitionServer`` holding one graph per class: 4 cold
    DETECTs, Zipf QUERYs with UPDATE bursts in between, then ``drain()``.
    A traced run cuts the queries and bursts to
    :data:`TRACED_STREAM_SHARE` of theirs.

    ``fault_hook`` is passed to the server (the self-test fails refreshes
    through it).
    """
    checks = Checks()
    clock = HostClock()
    idle = _Idle(clock)
    if rec is not None:
        queries = int(queries * TRACED_STREAM_SHARE)
        bursts = int(bursts * TRACED_STREAM_SHARE)
    spec = dict(queries=queries, bursts=bursts,
                edges_per_update=edges_per_update)
    warm_streams: List[tuple] = []

    def build():
        made = {n: registry.graph_spec(n).generator(seed) for n in graphs}
        warm = {SERVE_WARM_GRAPH:
                registry.graph_spec(SERVE_WARM_GRAPH).generator(seed)}
        return (_plan(made, seed, **spec),
                _plan(warm, seed, queries=200, bursts=2,
                      edges_per_update=edges_per_update))

    def warm(state) -> None:
        warm_streams.append((_run_stream(PartitionServer(), state[1]), state[1]))

    def server(traced: bool) -> PartitionServer:
        hooks = [h for h in (rec.note_solve if traced else None, fault_hook) if h]

        def hook(op: str, attempt: int) -> None:
            for h in hooks:
                h(op, attempt)
        return PartitionServer(fault_hook=hook if hooks else None)

    streams: List[_Stream] = []
    traced_streams: List[_Stream] = []
    with clock:
        (plan, _), stamps = _setup(rec, build, warm, idle)
        _timed(lambda traced: _run_stream(server(traced), plan),
               lambda stream, traced: (traced_streams if traced
                                       else streams).append(stream),
               MIN_STREAMS, seconds, rec, idle)
    peak = idle.peak_rss_mib()
    setup_s, warmup_s = _setup_seconds(clock, stamps)
    for stream, warm_plan in warm_streams:
        _verify_stream(stream, warm_plan, checks, None)
    scratch = None
    for stream in streams + traced_streams:
        scratch = _verify_stream(stream, plan, checks, scratch)

    def lengths(pairs: List[tuple], scaled: bool = True) -> np.ndarray:
        ends = clock.at(np.array(pairs).reshape(-1, 2), scaled)
        return ends[:, 1] - ends[:, 0]

    query_s = lengths([p for s in streams for p in s.queries])
    raw_query_s = lengths([p for s in streams for p in s.queries], False)
    update_s = lengths([p for s in streams for p in s.updates])
    walls = [clock.scaled(s.started, s.ended) for s in streams]
    first = streams[0]
    stats = first.server.stats()
    requests = len(first.tickets)
    q = {}
    for name, key in first.keys.items():
        entry = first.server.store.peek(key)
        q[name] = modularity(entry.graph, entry.membership)
    detail = {
        "fingerprints": {n: g.fingerprint() for n, g in plan.graphs.items()},
        "requests": requests,
        "stream_s": walls,
        "stream_s_raw": [clock.raw(s.started, s.ended) for s in streams],
        "host_speed": clock.speed(),
        "query_p50_us": float(np.percentile(query_s, 50)) * 1e6,
        "query_p999_us": float(np.percentile(query_s, 99.9)) * 1e6,
        "query_p50_us_raw": float(np.percentile(raw_query_s, 50)) * 1e6,
        "query_samples": int(query_s.shape[0]),
        "update_visible_p50_ms": float(np.percentile(update_s, 50)) * 1e3,
        "update_samples": int(update_s.shape[0]),
        "requests_per_s": requests / statistics.median(walls),
        "stale_frac": stats["derived"]["stale_serve_fraction"],
        "modularity_by_graph": q,
        "counters": stats["counters"],
        "warmup_s": warmup_s,
        "error_rate": checks.failed / checks.attempted,
    }
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": float(np.percentile(query_s, 50)) * 1e3,
        "throughput_per_s": requests / statistics.median(walls),
        "peak_rss_mib": peak,
        # The median, not the mean: the social stand-in's modularity
        # swings from 0.38 to 0.61 with the seed, the others by < 1%.
        "modularity": statistics.median(q.values()),
    }
    outcome = Outcome("serve-mixed", metrics, detail, checks, recorder=rec)
    if rec is not None:
        traced_walls = [clock.scaled(s.started, s.ended) for s in traced_streams]
        outcome.layers = e2e_trace.layer_metrics(
            rec, timed_ops=len(traced_streams), setups=len(stamps),
            at=lambda t: clock.at(t + rec.epoch),
            extra=_extra_layers(
                warmup_s,
                statistics.median(traced_walls) / statistics.median(walls) - 1.0,
                traced_streams[-1].server.stats()))
    return outcome


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "solve-web": solve_web,
    "solve-kmer": solve_kmer,
    "solve-web-proc2": solve_web_proc2,
    "serve-mixed": serve_mixed,
}
