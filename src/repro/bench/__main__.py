"""Run the evaluation: ``python -m repro.bench`` / ``repro bench``.

With no arguments, prints every experiment in paper order.  Positional
arguments filter by label ("table 1", "figure 9", ...); a filter that
matches no label exits 2 after listing the labels, and filters given
with any of the mode flags below (or ``--output`` / ``--json``, which
write the consolidated report artifacts of every experiment) exit 2.

Observability / CI flags:

- ``--check`` re-runs the committed smoke baselines
  (``benchmarks/baselines/*.json``) and exits non-zero when wall time,
  simulated-clock cost, total work or modularity regress past their
  thresholds — the CI perf gate;
- ``--update-baselines`` re-records the baseline files after an
  intentional performance or quality change.  ``--seed`` applies to the
  perf baselines only; every golden file is recorded at its
  :data:`~repro.observability.regression.GOLDEN_FAMILIES` params;
- ``--kernels`` times the production kernels against their sort
  oracles and exits 1 if any pair's outputs differ bitwise (``--quick``
  for the smaller CI timing variant);
- ``--engines`` runs the real-wall-clock engine A/B (``batch`` vs the
  shared-memory ``process`` pool) on registry graphs, checks the
  process membership against the batch run, and writes the JSON report
  CI uploads (``--engines-output``, ``--workers``).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.bench.experiments import ALL_EXPERIMENTS
from repro.cli import positive_int


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Regenerate the paper's tables and figures",
    )
    parser.add_argument("filters", nargs="*",
                        help="only run experiments whose label matches")
    parser.add_argument("--output", default=None,
                        help="write a consolidated markdown report here")
    parser.add_argument("--json", default=None, dest="json_path",
                        help="write a JSON summary here")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--check", action="store_true",
                        help="compare smoke runs against the committed "
                             "baselines; exit 1 on regression")
    parser.add_argument("--baselines", default=None, dest="baseline_dir",
                        metavar="DIR",
                        help="baseline directory (default: "
                             "benchmarks/baselines)")
    parser.add_argument("--update-baselines", action="store_true",
                        help="re-record the baseline files from the "
                             "current code")
    parser.add_argument("--kernels", action="store_true",
                        help="time the production kernels against "
                             "their sort oracles")
    parser.add_argument("--quick", action="store_true",
                        help="smaller/faster --kernels run (CI smoke)")
    parser.add_argument("--engines", action="store_true",
                        dest="engines_ab",
                        help="run the wall-clock engine A/B "
                             "(batch vs process pool)")
    parser.add_argument("--engines-output", default=None, metavar="PATH",
                        help="write the engine A/B JSON report here")
    parser.add_argument("--engines-graphs", default=None, metavar="NAMES",
                        help="comma-separated registry graphs for "
                             "--engines (default: the largest graphs)")
    parser.add_argument("--workers", type=positive_int, default=4,
                        help="worker count for --engines (default 4)")
    args = parser.parse_args(argv)
    if args.filters:
        modes = [flag for flag, given in (
            ("--kernels", args.kernels), ("--engines", args.engines_ab),
            ("--check", args.check),
            ("--update-baselines", args.update_baselines),
            ("--output", args.output), ("--json", args.json_path),
        ) if given]
        if modes:
            parser.error(f"experiment filters do not apply to {modes[0]}")

    if args.kernels:
        from repro.bench.kernels import main as kernels_main

        return kernels_main(seed=args.seed, quick=args.quick)

    if args.engines_ab:
        from repro.bench.engines import main as engines_main

        graphs = (args.engines_graphs.split(",")
                  if args.engines_graphs else None)
        return engines_main(
            graphs=graphs, workers=args.workers, seed=args.seed,
            output=args.engines_output,
        )

    if args.check or args.update_baselines:
        from repro.observability import regression

        baseline_dir = (Path(args.baseline_dir) if args.baseline_dir
                        else regression.default_baseline_dir())
        if args.update_baselines:
            for b in regression.record_baselines(baseline_dir,
                                                 seed=args.seed):
                print(f"recorded baseline {b.name} "
                      f"(modeled {b.metrics.modeled_seconds:.4f}s, "
                      f"Q={b.metrics.modularity:.4f})")
            for family in regression.GOLDEN_FAMILIES:
                for name, params in family.files.items():
                    regression.record_golden(baseline_dir, family, name,
                                             params)
                    print(f"recorded {family.label} baseline {name}")
        if args.check:
            return regression.run_check(baseline_dir, require_complete=True)
        return 0

    if args.output or args.json_path:
        from repro.bench.report import generate_report, write_report

        report = generate_report(seed=args.seed)
        write_report(report, markdown_path=args.output,
                     json_path=args.json_path)
        for target in (args.output, args.json_path):
            if target:
                print(f"wrote {target}")
        return 0

    wanted = {f.lower() for f in args.filters}
    labels = [label.lower() for label, _ in ALL_EXPERIMENTS]
    unmatched = sorted(w for w in wanted
                       if not any(w in label for label in labels))
    if unmatched:
        # The shape of ``repro serve``'s unknown-profile output: one line
        # per valid label, then a final ``error:`` summary on stderr.
        for label, _ in ALL_EXPERIMENTS:
            print(f"VALID experiment {label}", file=sys.stderr)
        print(f"error: no experiment label matches {unmatched[0]!r} — pick "
              f"a filter from the labels listed above", file=sys.stderr)
        return 2
    for label, module in ALL_EXPERIMENTS:
        if wanted and not any(w in label.lower() for w in wanted):
            continue
        print("=" * 72)
        print(f"== {label} ({module.__name__.rsplit('.', 1)[-1]})")
        print("=" * 72)
        t0 = time.perf_counter()
        module.main()
        print(f"[{label} done in {time.perf_counter() - t0:.1f}s]\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
