"""Baselines and the ``repro bench --check`` regression gate.

Two kinds of baseline file live under ``benchmarks/baselines/``.

*Perf baselines* (schema ``repro.baseline/1``) pin the outcome of one
smoke experiment — one (graph, config, seed) triple.  Four metrics are
compared against relative thresholds:

- ``wall_seconds`` — Python wall clock, the best of
  :data:`BASELINE_SOLVES` solves (noisy across machines, so the
  committed baselines carry a generous threshold);
- ``modeled_seconds`` — simulated-clock cost on the paper machine at the
  baseline's thread count (deterministic: counted work through the
  machine model, so the threshold is tight);
- ``total_work`` — raw work units recorded by the ledger (deterministic);
- ``modularity`` — solution quality (deterministic given the seed; gated
  on *drops* only).

*Golden baselines* pin a whole deterministic document (service stats,
metrics snapshots, the memory report) and gate on exact equality.  Each
family is one :class:`GoldenFamily` entry in :data:`GOLDEN_FAMILIES`.

``run_check`` validates every file, re-runs it and exits non-zero on any
regression, printing a readable diff — the artifact CI gates on.
``record_baselines`` and ``record_golden`` refresh the files after an
intentional change (see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro._version import __version__
from repro.core.config import LeidenConfig
from repro.core.leiden import leiden
from repro.core.result import LeidenResult
from repro.datasets.registry import load_graph
from repro.metrics.modularity import modularity
from repro.observability.metrics import to_snapshot, trace_families
from repro.observability.recorder import Recorder
from repro.observability.tracer import trace_tree
from repro.parallel.costmodel import PAPER_MACHINE
from repro.parallel.runtime import Runtime

__all__ = [
    "BASELINE_SCHEMA",
    "GOLDEN_FAMILIES",
    "Baseline",
    "GoldenFamily",
    "MetricCheck",
    "RunMetrics",
    "Thresholds",
    "collect_leiden_metrics",
    "compare_docs",
    "compare_metrics",
    "default_baseline_dir",
    "diff_trace_docs",
    "expected_baseline_names",
    "format_checks",
    "format_trace_diff",
    "golden_doc",
    "load_baseline",
    "measure_baseline",
    "measure_experiment",
    "measure_memory",
    "measure_metrics",
    "measure_service_metrics",
    "record_baselines",
    "record_golden",
    "run_check",
    "write_json",
]

#: Version tag embedded in every baseline file.
BASELINE_SCHEMA = "repro.baseline/1"

#: Smoke-experiment graphs the committed baselines cover: one road
#: network (sparse, many passes), one web graph, one social network —
#: small enough for CI, diverse enough to exercise every phase.
DEFAULT_BASELINE_GRAPHS = ("asia_osm", "uk-2002", "com-Orkut")


def write_json(path: Path | str, doc: dict) -> None:
    """Write ``doc`` as indented, key-sorted JSON: the byte format of
    every baseline file."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def default_baseline_dir() -> Path:
    """``benchmarks/baselines`` relative to the repo root (or cwd)."""
    cwd = Path.cwd() / "benchmarks" / "baselines"
    if cwd.is_dir():
        return cwd
    return Path(__file__).resolve().parents[3] / "benchmarks" / "baselines"


@dataclass(frozen=True)
class Thresholds:
    """Maximum tolerated relative change per metric.

    ``wall_seconds``/``modeled_seconds``/``total_work`` gate on relative
    *increases*; ``modularity_drop`` gates on a relative *decrease* of
    solution quality.  The committed baseline files override the wall
    threshold generously (hardware varies across CI runners) and rely on
    the deterministic modelled metrics for the tight gate.
    """

    wall_seconds: float = 0.15
    modeled_seconds: float = 0.10
    total_work: float = 0.10
    modularity_drop: float = 0.02

    def to_dict(self) -> Dict[str, float]:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Optional[dict]) -> "Thresholds":
        if not d:
            return cls()
        return replace(cls(), **{k: float(v) for k, v in d.items()})


#: Thresholds written into the committed baseline files.  The wall-clock
#: gate is deliberately loose — CI runners differ from the recording
#: machine — while the deterministic metrics (modelled seconds, work
#: units, modularity) carry the tight gate.
COMMITTED_THRESHOLDS = Thresholds(
    wall_seconds=1.0,
    modeled_seconds=0.05,
    total_work=0.05,
    modularity_drop=0.02,
)


@dataclass(frozen=True)
class RunMetrics:
    """The gated metrics of one experiment execution."""

    wall_seconds: float
    modeled_seconds: float
    total_work: float
    modularity: float
    num_passes: int
    num_communities: int

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunMetrics":
        return cls(
            wall_seconds=float(d["wall_seconds"]),
            modeled_seconds=float(d["modeled_seconds"]),
            total_work=float(d["total_work"]),
            modularity=float(d["modularity"]),
            num_passes=int(d["num_passes"]),
            num_communities=int(d["num_communities"]),
        )


@dataclass(frozen=True)
class Baseline:
    """One committed smoke experiment: inputs, expectations, tolerances."""

    name: str
    graph: str
    seed: int
    num_threads: int
    config: Dict[str, object] = field(default_factory=dict)
    metrics: RunMetrics = None  # type: ignore[assignment]
    thresholds: Thresholds = field(default_factory=Thresholds)

    def to_dict(self) -> dict:
        return {
            "schema": BASELINE_SCHEMA,
            "name": self.name,
            "graph": self.graph,
            "seed": self.seed,
            "num_threads": self.num_threads,
            "config": dict(self.config),
            "metrics": self.metrics.to_dict(),
            "thresholds": self.thresholds.to_dict(),
            "recorded_with": __version__,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Baseline":
        schema = d.get("schema")
        if schema != BASELINE_SCHEMA:
            raise ValueError(
                f"unsupported baseline schema {schema!r} "
                f"(expected {BASELINE_SCHEMA!r})"
            )
        return cls(
            name=str(d["name"]),
            graph=str(d["graph"]),
            seed=int(d["seed"]),
            num_threads=int(d["num_threads"]),
            config=dict(d.get("config", {})),
            metrics=RunMetrics.from_dict(d["metrics"]),
            thresholds=Thresholds.from_dict(d.get("thresholds")),
        )

    @classmethod
    def load(cls, path: Path | str) -> "Baseline":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def save(self, path: Path | str) -> None:
        write_json(path, self.to_dict())


def measure_experiment(
    graph_name: str,
    *,
    seed: int = 42,
    num_threads: int = 64,
    config: Optional[dict] = None,
    recorder: Optional[Recorder] = None,
) -> Tuple[RunMetrics, LeidenResult]:
    """Run one smoke experiment and collect its gated metrics.

    ``num_threads`` selects the thread count the *modelled* runtime is
    evaluated at (the execution itself is the deterministic simulated
    runtime).  Pass a :class:`~repro.observability.recorder.Recorder`
    to also record the run.
    """
    graph = load_graph(graph_name)
    cfg = LeidenConfig(**{"seed": seed, **(config or {})})
    rt = Runtime(num_threads=1, seed=cfg.seed, recorder=recorder)
    t0 = time.perf_counter()
    result = leiden(graph, cfg, runtime=rt)
    wall = time.perf_counter() - t0
    sim = result.ledger.simulate(PAPER_MACHINE, num_threads)
    metrics = RunMetrics(
        wall_seconds=wall,
        modeled_seconds=sim.seconds,
        total_work=result.ledger.total_work,
        modularity=modularity(graph, result.membership),
        num_passes=result.num_passes,
        num_communities=result.num_communities,
    )
    return metrics, result


@dataclass(frozen=True)
class MetricCheck:
    """Outcome of one metric comparison against its baseline."""

    metric: str
    baseline: float
    current: float
    #: Relative change, signed so that positive means "worse".
    regression: float
    threshold: float
    ok: bool

    def describe(self) -> str:
        arrow = "OK " if self.ok else "REG"
        return (
            f"  [{arrow}] {self.metric:<16} "
            f"baseline={self.baseline:.6g}  current={self.current:.6g}  "
            f"change={self.regression:+.1%} (limit {self.threshold:+.0%})"
        )


def compare_metrics(
    baseline: Baseline,
    current: RunMetrics,
    *,
    thresholds: Optional[Thresholds] = None,
) -> List[MetricCheck]:
    """Compare a fresh run against a baseline; one check per gated metric.

    ``thresholds`` overrides the baseline's own tolerances (used by tests
    and by callers that want a uniformly stricter gate).
    """
    th = thresholds or baseline.thresholds
    checks: List[MetricCheck] = []
    for metric, limit in (
        ("wall_seconds", th.wall_seconds),
        ("modeled_seconds", th.modeled_seconds),
        ("total_work", th.total_work),
    ):
        base = getattr(baseline.metrics, metric)
        cur = getattr(current, metric)
        reg = (cur - base) / base if base > 0 else 0.0
        checks.append(MetricCheck(metric, base, cur, reg, limit, reg <= limit))
    base_q = baseline.metrics.modularity
    cur_q = current.modularity
    drop = (base_q - cur_q) / abs(base_q) if base_q != 0 else 0.0
    checks.append(
        MetricCheck("modularity", base_q, cur_q, drop, th.modularity_drop,
                    drop <= th.modularity_drop)
    )
    return checks


def format_checks(name: str, checks: Sequence[MetricCheck]) -> str:
    """Readable per-experiment diff, one line per metric."""
    ok = all(c.ok for c in checks)
    head = f"{'PASS' if ok else 'FAIL'} {name}"
    return "\n".join([head] + [c.describe() for c in checks])


#: Solves per perf-baseline measurement; ``wall_seconds`` is their best.
#: One solve of a small graph is at the mercy of the host: a single
#: preempted solve could fail the wall-clock gate on its own.
BASELINE_SOLVES = 3


def measure_baseline(
    graph_name: str,
    *,
    seed: int,
    num_threads: int,
    config: Optional[dict] = None,
    print_fn=print,
) -> Tuple[RunMetrics, bool]:
    """One perf-baseline measurement: :data:`BASELINE_SOLVES` solves.

    Returns the metrics with the best wall time, and whether the
    deterministic metrics were equal across the solves; when they were
    not, prints a ``FAIL`` line — the solve is not reproducible, and
    no wall time can stand in for that.
    """
    runs = [
        measure_experiment(graph_name, seed=seed, num_threads=num_threads,
                           config=config)[0]
        for _ in range(BASELINE_SOLVES)
    ]
    first = runs[0]
    stable = all(replace(r, wall_seconds=first.wall_seconds) == first
                 for r in runs[1:])
    if not stable:
        print_fn(f"FAIL {graph_name}: deterministic metrics differ across "
                 f"{BASELINE_SOLVES} solves")
    best = min(r.wall_seconds for r in runs)
    return replace(first, wall_seconds=best), stable


def record_baselines(
    directory: Path | str,
    graphs: Sequence[str] = DEFAULT_BASELINE_GRAPHS,
    *,
    seed: int = 42,
    num_threads: int = 64,
    thresholds: Optional[Thresholds] = None,
    print_fn=print,
) -> List[Baseline]:
    """(Re)write one baseline file per graph; returns the new baselines."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    out: List[Baseline] = []
    for graph_name in graphs:
        metrics, _ = measure_baseline(
            graph_name, seed=seed, num_threads=num_threads,
            print_fn=print_fn,
        )
        baseline = Baseline(
            name=graph_name,
            graph=graph_name,
            seed=seed,
            num_threads=num_threads,
            config={},
            metrics=metrics,
            thresholds=thresholds or COMMITTED_THRESHOLDS,
        )
        baseline.save(directory / f"{graph_name}.json")
        out.append(baseline)
    return out




# -- golden baselines (exact-match gate) -------------------------------------


def collect_leiden_metrics(
    graph,
    config: Optional[LeidenConfig] = None,
    *,
    seed: int = 42,
    num_threads: int = 1,
    executor: str = "serial",
):
    """One recorded detection run and its metric families.

    Returns ``(families, recorder, result)``.  The trace's observation
    histograms (batch sizes, color-class sizes — all deterministic
    counts) join the recorder's families as ``trace_*`` histograms, so
    the metrics report the same p50/p99 as the trace.

    ``num_threads``/``executor`` size the runtime — pass
    ``executor="process"`` for the process engine so its worker pool
    (reaped here before returning) matches the requested width.
    """
    cfg = config or LeidenConfig(seed=seed)
    recorder = Recorder()
    rt = Runtime(num_threads=num_threads, executor=executor,
                 seed=cfg.seed, recorder=recorder)
    try:
        result = leiden(graph, cfg, runtime=rt)
    finally:
        rt.close()
    families = {**recorder.families,
                **trace_families(trace_tree(recorder))}
    return families, recorder, result


def measure_metrics(
    graph_name: str,
    *,
    seed: int = 42,
    config: Optional[LeidenConfig] = None,
) -> dict:
    """Deterministic ``repro.metrics/1`` snapshot of one detection run."""
    graph = load_graph(graph_name)
    cfg = config or LeidenConfig(seed=seed)
    families, _, result = collect_leiden_metrics(graph, cfg, seed=seed)
    q = modularity(graph, result.membership)
    return to_snapshot(
        families,
        experiment=graph_name,
        seed=cfg.seed,
        modularity=q,
        num_passes=result.num_passes,
        num_communities=result.num_communities,
        total_work=result.ledger.total_work,
    )


def measure_service_metrics(profile: str = "quick", *, seed: int = 0) -> dict:
    """Deterministic metrics snapshot of one service workload.

    The server runs with a recorder attached.  No ``trace_*`` families:
    the trace's service histograms observe wall-clock seconds, which
    would break byte-determinism.
    """
    from repro.service.server import PartitionServer
    from repro.service.workload import run_workload

    recorder = Recorder()
    server = PartitionServer(recorder=recorder)
    run_workload(profile, seed=seed, server=server, verify=False)
    return to_snapshot(
        recorder.families,
        profile=profile,
        seed=seed,
        clock_units=int(server.clock),
    )


def measure_memory(graph: str = "asia_osm", *, seed: int = 42) -> dict:
    """Deterministic ``repro.memory/1`` report of one detection run.

    Single-thread run on registry graph ``graph`` with a recorder
    attached; the input graph's CSR arrays are charged explicitly (loads
    are memoized, so construction may predate the recorder).  The
    document is validated (event replay must reproduce the watermarks)
    before it is returned.
    """
    from repro.observability.memtrack import MemoryView, validate_memory_doc
    from repro.observability.recorder import record_csr

    csr = load_graph(graph)
    recorder = Recorder()
    record_csr(recorder, csr)
    with Runtime(num_threads=1, seed=seed, recorder=recorder) as rt:
        leiden(csr, LeidenConfig(seed=seed), runtime=rt)
    doc = MemoryView(recorder).to_snapshot(experiment=graph, seed=seed)
    validate_memory_doc(doc)
    return doc


def _service_doc(profile: str, seed: int) -> dict:
    from repro.service.workload import run_workload

    return run_workload(profile, seed=seed).to_json_dict()


def _metrics_doc(kind: str, target: str, seed: int) -> dict:
    if kind == "service":
        return measure_service_metrics(target, seed=seed)
    return measure_metrics(target, seed=seed)


@dataclass(frozen=True)
class GoldenFamily:
    """One family of exact-match baseline files and their producer.

    ``files`` maps each file's ``name`` (stored as ``<name>.json``) to
    the params it is recorded at; ``produce(**params)`` returns the
    document the file pins.  Every golden file has the same envelope —
    ``schema``, ``name``, the params, ``expected`` and ``recorded_with``
    — so one writer (:func:`record_golden`) and one checker serve every
    family.  The producers are counting passes on logical clocks with no
    wall-clock fields, so the gate is exact equality: any drift is a
    real behavioural change.
    """

    label: str
    schema: str
    produce: Callable[..., dict]
    files: Dict[str, Dict[str, object]]

    @property
    def params(self) -> Tuple[str, ...]:
        """Param names every file of the family carries, in print order."""
        return tuple(next(iter(self.files.values())))


#: Every exact-match family, in recording order.  Adding a family is one
#: entry here: ``--update-baselines`` records its files, ``--check``
#: requires and re-runs them.
GOLDEN_FAMILIES: Tuple[GoldenFamily, ...] = (
    # The full deterministic stats document of one service workload.
    GoldenFamily("service", "repro.service-baseline/1", _service_doc, {
        "service_quick": {"profile": "quick", "seed": 0},
    }),
    # Metrics snapshots: an instrumented detection run (kind "leiden")
    # and an instrumented service workload (kind "service").
    GoldenFamily("metrics", "repro.metrics-baseline/1", _metrics_doc, {
        "metrics_asia_osm":
            {"kind": "leiden", "target": "asia_osm", "seed": 42},
        "metrics_service_quick":
            {"kind": "service", "target": "quick", "seed": 0},
    }),
    # The full repro.memory/1 report of one single-thread detection run.
    GoldenFamily("memory", "repro.memory-baseline/1", measure_memory, {
        "memory_quick": {"graph": "asia_osm", "seed": 42},
    }),
)

_GOLDEN_BY_SCHEMA = {family.schema: family for family in GOLDEN_FAMILIES}


def golden_doc(family: GoldenFamily, name: str, params: dict,
               expected: dict) -> dict:
    """The envelope of one golden baseline file."""
    return {"schema": family.schema, "name": name, **params,
            "expected": expected, "recorded_with": __version__}


def record_golden(directory: Path | str, family: GoldenFamily, name: str,
                  params: dict) -> dict:
    """Run ``family.produce(**params)`` and (re)write ``<name>.json``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    doc = golden_doc(family, name, params, family.produce(**params))
    write_json(directory / f"{name}.json", doc)
    return doc


def compare_docs(
    expected, actual, prefix: str = ""
) -> List[Tuple[str, object, object]]:
    """Recursive exact diff of two JSON documents.

    Returns ``(path, expected, actual)`` triples for every leaf that
    differs (missing keys surface as ``None`` on the absent side).
    """
    diffs: List[Tuple[str, object, object]] = []
    if isinstance(expected, dict) and isinstance(actual, dict):
        for k in sorted(set(expected) | set(actual)):
            diffs.extend(compare_docs(
                expected.get(k), actual.get(k),
                f"{prefix}.{k}" if prefix else str(k)))
    elif isinstance(expected, list) and isinstance(actual, list) \
            and len(expected) == len(actual):
        for i, (e, a) in enumerate(zip(expected, actual)):
            diffs.extend(compare_docs(e, a, f"{prefix}[{i}]"))
    elif expected != actual:
        diffs.append((prefix, expected, actual))
    return diffs


def _check_golden(family: GoldenFamily, doc: dict, print_fn) -> bool:
    params = {k: doc[k] for k in family.params}
    diffs = compare_docs(doc["expected"], family.produce(**params))
    shown = ", ".join(
        f"{k}={','.join(v) if isinstance(v, list) else v}"
        for k, v in params.items())
    print_fn(f"{'PASS' if not diffs else 'FAIL'} {doc['name']} "
             f"(exact match, {shown})")
    for path, exp, act in diffs[:20]:
        print_fn(f"  [REG] {path}: baseline={exp!r}  current={act!r}")
    if len(diffs) > 20:
        print_fn(f"  ... and {len(diffs) - 20} more differing fields")
    return not diffs


def load_baseline(path: Path | str) -> Tuple[Optional[GoldenFamily], dict]:
    """Parse and validate one baseline file without re-running it.

    Returns ``(family, doc)`` for a golden file and ``(None, doc)`` for a
    perf baseline.  Raises :class:`ValueError` naming the reason when the
    file does not parse, its schema is unknown, or a field of its
    envelope or params is missing.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ValueError(f"unreadable JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    schema = doc.get("schema")
    if schema == BASELINE_SCHEMA:
        try:
            Baseline.from_dict(doc)
        except KeyError as exc:
            raise ValueError(f"missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad field ({exc})") from None
        return None, doc
    family = _GOLDEN_BY_SCHEMA.get(schema)
    if family is None:
        raise ValueError(f"unknown schema {schema!r}")
    missing = [k for k in ("name", *family.params, "expected",
                           "recorded_with") if k not in doc]
    if missing:
        raise ValueError(f"missing field(s) {', '.join(map(repr, missing))}")
    return family, doc


def expected_baseline_names() -> List[str]:
    """Filenames ``--check`` requires to be present in the baseline dir.

    The perf graphs (:data:`DEFAULT_BASELINE_GRAPHS`) plus every file of
    every :data:`GOLDEN_FAMILIES` entry — the set
    ``--update-baselines`` writes and CI commits.
    """
    return sorted([f"{g}.json" for g in DEFAULT_BASELINE_GRAPHS]
                  + [f"{name}.json" for family in GOLDEN_FAMILIES
                     for name in family.files])


def run_check(
    baseline_dir: Path | str | None = None,
    *,
    thresholds: Optional[Thresholds] = None,
    require_complete: bool = False,
    print_fn=print,
) -> int:
    """Re-run every committed baseline and compare; 0 = all pass.

    This is the body of ``repro bench --check``: the exit code is the CI
    gate, the printed diff is the human-readable artifact.  Dispatches on
    each file's ``schema`` tag: perf baselines gate on thresholds,
    golden baselines on exact document equality.

    Every file is validated before anything re-runs: an unparseable
    file, an unknown schema or a missing field prints ``INVALID`` and
    exits 2.  With ``require_complete`` (the CLI always sets it), a
    *missing* expected baseline file is a hard error (exit 2) too, not a
    silent pass — a gate that skips absent baselines checks nothing.
    Library callers checking a deliberately partial directory leave it
    off.
    """
    directory = Path(baseline_dir) if baseline_dir else default_baseline_dir()
    paths = sorted(directory.glob("*.json"))
    if not paths:
        print_fn(f"no baselines found under {directory}")
        return 2
    if require_complete:
        found = {p.name for p in paths}
        missing = [name for name in expected_baseline_names()
                   if name not in found]
        if missing:
            for name in missing:
                print_fn(f"MISSING baseline {directory / name}")
            print_fn(
                f"error: {len(missing)} expected baseline file(s) missing "
                f"— run `repro bench --update-baselines` and commit the "
                f"result")
            return 2
    loaded = []
    invalid = 0
    for path in paths:
        try:
            loaded.append(load_baseline(path))
        except ValueError as exc:
            print_fn(f"INVALID baseline {path}: {exc}")
            invalid += 1
    if invalid:
        print_fn(f"error: {invalid} baseline file(s) invalid — fix or "
                 f"re-record them with `repro bench --update-baselines`")
        return 2
    failures = 0
    for family, doc in loaded:
        if family is not None:
            failures += not _check_golden(family, doc, print_fn)
            continue
        baseline = Baseline.from_dict(doc)
        current, stable = measure_baseline(
            baseline.graph,
            seed=baseline.seed,
            num_threads=baseline.num_threads,
            config=baseline.config,
            print_fn=print_fn,
        )
        checks = compare_metrics(baseline, current, thresholds=thresholds)
        print_fn(format_checks(baseline.name, checks))
        if not (stable and all(c.ok for c in checks)):
            failures += 1
    total = len(paths)
    print_fn(f"{total - failures}/{total} baselines within thresholds")
    return 1 if failures else 0


# -- trace diffing ------------------------------------------------------------


def _span_seconds_by_path(doc: dict) -> Dict[str, float]:
    """Flatten a trace document's span tree to ``path -> seconds``.

    Sibling spans sharing a name are disambiguated by the span's
    ``index`` attr when present, else by occurrence order — matching
    :func:`~repro.observability.tracer.format_span_path`'s ``pass[0]``
    notation.
    """
    out: Dict[str, float] = {}

    def walk(spans, prefix):
        seen: Dict[str, int] = {}
        for s in spans:
            name = s.get("name", "?")
            attrs = s.get("attrs", {})
            if "index" in attrs:
                label = f"{name}[{attrs['index']}]"
            else:
                k = seen.get(name, 0)
                seen[name] = k + 1
                label = name if k == 0 else f"{name}#{k}"
            path = f"{prefix}/{label}" if prefix else label
            out[path] = out.get(path, 0.0) + float(s.get("seconds", 0.0))
            walk(s.get("children", ()), path)

    walk(doc.get("spans", ()), "")
    return out


def diff_trace_docs(a: dict, b: dict) -> List[dict]:
    """Deterministic field-level delta between two ``repro.trace/2``
    documents.

    Returns one row per compared field, sorted by ``(kind, name)``: all
    counters and derived metrics (deterministic at a fixed seed — any
    drift is a real behavioural change) plus per-span-path wall seconds
    (informational; wall clock is machine-noisy).
    """
    rows: List[dict] = []
    for kind, key in (("counter", "counters"), ("derived", "derived")):
        da = a.get(key, {}) or {}
        db = b.get(key, {}) or {}
        for name in sorted(set(da) | set(db)):
            rows.append({"kind": kind, "name": name,
                         "a": da.get(name), "b": db.get(name)})
    sa = _span_seconds_by_path(a)
    sb = _span_seconds_by_path(b)
    for name in sorted(set(sa) | set(sb)):
        rows.append({"kind": "seconds", "name": name,
                     "a": sa.get(name), "b": sb.get(name)})
    return rows


def _fmt_val(v) -> str:
    return "-" if v is None else f"{v:.6g}"


def format_trace_diff(
    rows: Sequence[dict], *, label_a: str = "A", label_b: str = "B"
) -> Tuple[str, int]:
    """Render a trace diff; returns ``(text, num_deterministic_diffs)``.

    Counter/derived rows that differ are flagged ``DIFF`` and counted
    (``repro trace --diff --strict`` gates on that count); identical
    rows are summarized.  Seconds rows always print with their relative
    change but never count as regressions here — that is the bench
    gate's job.
    """
    lines = [f"trace diff: A={label_a}  B={label_b}"]
    diffs = 0
    for kind, title in (("counter", "counters"), ("derived", "derived metrics")):
        sel = [r for r in rows if r["kind"] == kind]
        if not sel:
            continue
        changed = [r for r in sel if r["a"] != r["b"]]
        lines.append(f"{title}: {len(sel) - len(changed)}/{len(sel)} identical")
        for r in changed:
            diffs += 1
            a, b = r["a"], r["b"]
            if a is not None and b is not None and a != 0:
                rel = f"  ({(b - a) / abs(a):+.1%})"
            else:
                rel = ""
            lines.append(f"  [DIFF] {r['name']:<28} "
                         f"A={_fmt_val(a)}  B={_fmt_val(b)}{rel}")
    sel = [r for r in rows if r["kind"] == "seconds"]
    if sel:
        lines.append("span seconds (wall clock, informational):")
        for r in sel:
            a, b = r["a"], r["b"]
            if a and b:
                rel = f"  ({(b - a) / abs(a):+.1%})"
            else:
                rel = ""
            lines.append(f"  {r['name']:<36} "
                         f"A={_fmt_val(a)}  B={_fmt_val(b)}{rel}")
    lines.append(f"{diffs} deterministic field(s) differ")
    return "\n".join(lines), diffs
