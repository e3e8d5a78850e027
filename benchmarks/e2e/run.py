#!/usr/bin/env python3
"""Wall-clock benchmark of the GVE-Leiden reproduction: one workload, one run.

    python3 benchmarks/e2e/run.py --workload solve-web --seed 1 \\
        [--seconds 15] [--trace 0|1]

Run from the root of a checkout.  Every input is generated from
``--seed``; the run measures for about ``--seconds``, checks every output,
and prints a host header, each metric by name with its unit, and as its
last line one JSON object::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

``--trace 0`` reports the ``end_to_end`` metrics of BENCHMARK.json.
Their times are wall times scaled to a nominal host speed, which a
reference loop samples whenever the workload is idle
(``e2e_workloads.HostClock``); the raw wall times follow on the
``detail`` line.
``--trace 1`` wraps the layers' public functions, reports the
``per_layer`` metrics instead and writes the spans to
``benchmarks/e2e/out/spans-<workload>-<seed>.json``.  The process exits
nonzero when a check fails, and without a result when the checkout has no
``src/repro`` to measure.  ``sets.py`` runs many seeds and compares sets.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_checkout_source() -> None:
    """Put this checkout's ``src`` first on the path, or stop: the
    benchmark measures the code beside it, never an installed copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: {src / 'repro'} not found; "
                 "run the benchmark from a full checkout")
    sys.path[:0] = [str(src), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"run.py: imported repro from {repro.__file__}, not {src}")


def host_facts() -> dict:
    """Host header.  The calibration time is informational only: no
    metric is normalised by it (scaled times use the samples that
    ``HostClock`` takes during the run instead)."""
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    rng = np.random.default_rng(0)
    data = rng.random(1 << 20)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        np.sort(data)
        np.cumsum(data)
        best = min(best, time.perf_counter() - t0)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "calibration_s": best,
    }


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker, which the
    process engine's shared memory starts, so the run leaves no process
    behind.  (Private API, hence the guard.)"""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def report(outcome, spec: dict, trace: bool) -> tuple[list[str], dict]:
    """The metric lines and the final result object of one run."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = outcome.layers if trace else outcome.metrics
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise KeyError(f"{outcome.workload} did not measure {missing}")
    lines = [f"{m['name']} = {values[m['name']]!r} {m['unit']}" for m in wanted]
    checks = outcome.checks
    lines.append(f"error_rate = {checks.failed / checks.attempted!r} ratio "
                 f"({checks.failed} of {checks.attempted} operations)")
    lines += [f"FAILED {text}" for text in checks.failures[:20]]
    doc = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    return lines, doc


def derived_lines(outcome, trace: bool) -> list[str]:
    """Informational lines, never gated: real beside modelled phase
    shares (ROADMAP item 1's cross-check) and the parent-serial fraction."""
    lines = []
    if trace:
        src = outcome.layers
        real = {p: src[f"core.real_share.{p}"] for p in ("local_move", "refine",
                                                        "aggregate", "other")}
        model = {p: src[f"core.model_share.{p}"] for p in real}
        serial = src["core.serial_frac"]
        phases = sum(src[f"{p}.s"] for p in ("local_move", "refine", "aggregate"))
        if src["leiden.s"] > 0:
            lines.append("trace check: (phases + leiden.other_s) / leiden.s = "
                         f"{(phases + src['leiden.other_s']) / src['leiden.s']:.4f}")
    elif "real_share" in outcome.detail:
        real, model = outcome.detail["real_share"], outcome.detail["model_share"]
        serial = outcome.detail["serial_frac"]
    else:
        return lines
    shares = "  ".join(f"{p} {real[p]:.3f}/{model[p]:.3f}" for p in real)
    return lines + [f"phase share real/modelled: {shares}",
                    f"core.serial_frac = {serial:.4f} (refine + aggregate + other)"]


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_checkout_source()
    import e2e_trace
    import e2e_workloads

    host = host_facts()
    print("# host " + json.dumps(host))
    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    rec = e2e_trace.SpanRecorder() if args.trace else None
    outcome = e2e_workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, rec=rec)
    stop_resource_tracker()
    lines, doc = report(outcome, spec, bool(args.trace))
    print("\n".join(lines + derived_lines(outcome, bool(args.trace))))
    print("detail " + json.dumps(outcome.detail, default=lambda v: v.item()))
    if rec is not None:
        path = OUT / f"spans-{args.workload}-{args.seed}.json"
        rec.write(path)
        print(f"# spans written to {path.relative_to(ROOT)}")
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
