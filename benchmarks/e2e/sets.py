#!/usr/bin/env python3
"""Run the benchmark over many seeds, and compare two sets of runs.

    python3 benchmarks/e2e/sets.py run --out A.json [--seeds 1-10]
        [--seconds S] [--workload NAME]... [CHECKOUT]
    python3 benchmarks/e2e/sets.py run --out A.json --out B.json PARENT CHANGE
    python3 benchmarks/e2e/sets.py compare A.json B.json

``run`` starts ``run.py`` once per (seed, workload, checkout), each in a
fresh subprocess and one at a time, and writes one result set per
checkout: every run's metrics plus the median and quartiles of each
metric.  Given two checkouts it alternates which runs first from one seed
to the next.  A run whose checks failed is recorded like any other.
``compare`` reads two sets and, per workload and metric, reports the
medians, whether the second is worse than the first by more than the
metric's bound, and whether it wins at least 9 of 10 seed-matched pairs
by more than the first set's spread between quartiles; and whether the
second set's share of failed operations is higher.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}
SCHEMA = "repro.e2e-set/1"


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them (the median alone for a single value)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(values) -> dict:
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0}


def run_one(checkout: Path, workload: str, seed: int, seconds) -> dict:
    cmd = [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.splitlines()
    try:
        # A run whose checks failed exits 1 but still ends in its result.
        result = json.loads(lines[-1]) if proc.returncode in (0, 1) else None
    except (IndexError, json.JSONDecodeError):
        result = None
    if not isinstance(result, dict) or "correct" not in result:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} in {checkout} exited "
                         f"{proc.returncode} without a result")

    def tagged(prefix: str) -> dict:
        return json.loads(next(line[len(prefix):] for line in lines
                               if line.startswith(prefix)))
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "detail": tagged("detail "),
        "host": tagged("# host "),
    }


def summarise_set(doc: dict) -> None:
    """Fill each workload's ``summary`` from its runs, in place."""
    for w in doc["workloads"].values():
        runs = w["runs"]
        w["summary"] = {name: summarise([r["metrics"][name] for r in runs])
                        for name in runs[0]["metrics"]}
        numeric = [k for k, v in runs[0]["detail"].items()
                   if isinstance(v, (int, float)) and not isinstance(v, bool)]
        w["detail_summary"] = {k: summarise([r["detail"][k] for r in runs])
                               for k in numeric}
    solves = doc["workloads"]
    if "solve-web" in solves and "solve-web-proc2" in solves:
        for key, label in (("solve_s_raw_median", "raw"),
                           ("solve_s_median", "scaled")):
            web = {r["seed"]: r["detail"][key]
                   for r in solves["solve-web"]["runs"]}
            ratio = [web[r["seed"]] / r["detail"][key]
                     for r in solves["solve-web-proc2"]["runs"]
                     if r["seed"] in web]
            if ratio:
                doc.setdefault("proc2_speedup_vs_batch", {})[label] = (
                    summarise(ratio))


def print_set(doc: dict) -> None:
    print(f"{'workload':16} {'metric':22} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'spread':>8} {'bound':>6}")
    for name, w in doc["workloads"].items():
        for metric, s in w["summary"].items():
            bound = BOUNDS[metric]["bound"]
            flag = "" if s["spread"] <= bound / 3 else (
                " (over bound/3)" if s["spread"] <= bound else " OVER BOUND")
            print(f"{name:16} {metric:22} {s['median']:14.6g} {s['q1']:14.6g} "
                  f"{s['q3']:14.6g} {s['spread']:8.4f} {bound:6.3f}{flag}")
        for key, s in w["detail_summary"].items():
            print(f"{name:16} {'(' + key + ')':22} {s['median']:14.6g} "
                  f"{s['q1']:14.6g} {s['q3']:14.6g} {s['spread']:8.4f}")
    print_speedup(doc, "")


def print_speedup(doc: dict, label: str) -> None:
    """The informational solve-web-proc2 / solve-web line (quoted
    against ``batch``, the fastest single-process engine)."""
    for kind, s in doc.get("proc2_speedup_vs_batch", {}).items():
        print(f"{label}solve-web-proc2 speedup over solve-web (batch), "
              f"2 workers, {kind} times: median {s['median']:.3f}x, "
              f"quartiles {s['q1']:.3f}x-{s['q3']:.3f}x")


def cmd_run(args) -> int:
    checkouts = [Path(c).resolve() for c in (args.checkout or ["."])]
    if len(args.out) != len(checkouts):
        raise SystemExit("give one --out per checkout")
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    lo, _, hi = args.seeds.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    docs = [{"schema": SCHEMA, "seconds": args.seconds or SPEC["run_seconds"],
             "seeds": seeds, "workloads": {w: {"runs": []} for w in workloads}}
            for _ in checkouts]
    for i, seed in enumerate(seeds):
        order = list(range(len(checkouts)))
        if i % 2:
            order.reverse()
        for workload in workloads:
            for k in order:
                run = run_one(checkouts[k], workload, seed, args.seconds)
                docs[k].setdefault("host", run.pop("host"))
                docs[k]["workloads"][workload]["runs"].append(run)
                print(f"[{'ab'[k] if len(checkouts) > 1 else '-'}] {workload} "
                      f"seed {seed}: " + " ".join(
                          f"{m}={v:.6g}" for m, v in run["metrics"].items())
                      + ("" if run["correct"] else "  INCORRECT"), flush=True)
    for doc, out in zip(docs, args.out):
        summarise_set(doc)
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(json.dumps(doc, indent=1) + "\n")
        print(f"\n== {out}")
        print_set(doc)
    failed = sum(r["failed"] for d in docs for w in d["workloads"].values()
                 for r in w["runs"])
    return 1 if failed else 0


def cmd_compare(args) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (args.a, args.b))
    regressions = 0
    print(f"{'workload':16} {'metric':22} {'median A':>14} {'median B':>14} "
          f"{'worse by':>9} {'bound':>6} {'wins':>6}  verdict")
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        # error_rate has bound 0: any rise in failed operations regresses,
        # and no gain counts beside it.
        rate_a, rate_b = (sum(r["failed"] for r in w["runs"])
                          / sum(r["attempted"] for r in w["runs"])
                          for w in (wa, wb))
        for metric, sa in wa["summary"].items():
            sb = wb["summary"][metric]
            spec = BOUNDS[metric]
            sign = 1.0 if spec["better"] == "lower" else -1.0
            worse = sign * (sb["median"] - sa["median"]) / abs(sa["median"])
            va = {r["seed"]: r["metrics"][metric] for r in wa["runs"]}
            pairs = [(va[r["seed"]], r["metrics"][metric]) for r in wb["runs"]
                     if r["seed"] in va]
            wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
            if worse > spec["bound"]:
                verdict = "REGRESSED"
                regressions += 1
            elif (rate_b <= rate_a and pairs and wins >= 0.9 * len(pairs)
                  and abs(sb["median"] - sa["median"]) > sa["q3"] - sa["q1"]):
                verdict = "gain"
            else:
                verdict = "no change"
            print(f"{name:16} {metric:22} {sa['median']:14.6g} "
                  f"{sb['median']:14.6g} {worse:9.4f} {spec['bound']:6.3f} "
                  f"{wins:>3}/{len(pairs):<2}  {verdict}")
        verdict = "REGRESSED" if rate_b > rate_a else "no change"
        regressions += rate_b > rate_a
        print(f"{name:16} {'error_rate':22} {rate_a:14.6g} {rate_b:14.6g} "
              f"{rate_b - rate_a:9.4f} {0:6.3f} {'':>6}  {verdict}")
    print_speedup(a, "A: ")
    print_speedup(b, "B: ")
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run seeds x workloads, write result sets")
    r.add_argument("checkout", nargs="*",
                   help="checkout roots (default: the current directory)")
    r.add_argument("--out", action="append", required=True)
    r.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    r.add_argument("--seconds", type=float)
    r.add_argument("--workload", action="append")
    c = sub.add_parser("compare", help="compare set B against set A")
    c.add_argument("a")
    c.add_argument("b")
    args = parser.parse_args(argv)
    return cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
