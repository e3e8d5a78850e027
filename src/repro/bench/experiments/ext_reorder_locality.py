"""Extension experiment: community-aware relabeling locality A/B.

Three layouts of the same graph are compared:

- ``original`` — registry order (the synthetic generators emit mostly
  local ids, so this is a best-case reference);
- ``scrambled`` — a seeded random permutation, modelling the arbitrary
  (hashed) vertex ids real-world inputs arrive with;
- ``relabeled`` — the community-aware layout derived from a solve on
  the scrambled graph (:mod:`repro.graph.relabel`): communities
  contiguous in dendrogram order.

For each layout the modelled cache traffic of one edge scan is counted
exactly (:mod:`repro.observability.locality` — per-row distinct lines
and an LRU replay that sees cross-row reuse), and each engine solves on
each layout for real wall-clock plus modelled per-phase seconds and
atomics.  The deterministic half (:func:`measure_reorder_locality`) is
committed as an exact-match baseline and re-checked by
``repro bench --check``.

Quality is exactly layout-invariant: the scrambled solve's membership
expressed on the relabeled layout has bit-identical modularity
(``q_invariant``).  Fresh solves on different layouts may settle on
different — equally valid — partitions (the engines' tie-breaks are
id-dependent), so per-layout Q is reported per arm, not gated across
arms.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.bench.tables import format_table
from repro.core.config import LeidenConfig
from repro.core.leiden import leiden
from repro.datasets.registry import load_graph
from repro.graph.relabel import community_relabeling
from repro.metrics.modularity import modularity
from repro.observability.locality import measure_locality
from repro.parallel.costmodel import PAPER_MACHINE
from repro.parallel.runtime import Runtime

__all__ = [
    "LAYOUTS",
    "ReorderLocalityResult",
    "build_layouts",
    "measure_reorder_locality",
    "run",
    "report",
    "main",
]

#: Layout arms, in presentation order.
LAYOUTS = ("original", "scrambled", "relabeled")

#: Engines timed in the wall-clock half.
DEFAULT_ENGINES = ("batch", "process")

#: Seed of the scrambling permutation (independent of the solve seed).
SCRAMBLE_SEED = 7

#: Modelled thread count for the per-phase seconds.
MODEL_THREADS = 64


def build_layouts(
    graph, *, seed: int = 42, scramble_seed: int = SCRAMBLE_SEED,
    mode: str = "community",
) -> Dict[str, object]:
    """The three layout graphs plus the relabeling metadata.

    Returns ``{"original": g, "scrambled": g2, "relabeled": g3,
    "relabeling": Relabeling, "pilot_membership": scrambled-id array}``.
    The relabeled layout is derived from a full batch solve on the
    *scrambled* graph — the realistic scenario where the stored
    partition of an arbitrarily-ordered input doubles as its locality
    preprocessor.
    """
    n = graph.num_vertices
    rng = np.random.default_rng(scramble_seed)
    scramble = rng.permutation(n).astype(np.int64)
    scrambled, _ = graph.permute(scramble)
    pilot = leiden(scrambled, LeidenConfig(engine="batch", seed=seed))
    levels = (pilot.dendrogram.memberships()
              if pilot.dendrogram.num_levels else [pilot.membership])
    relab = community_relabeling(scrambled, levels, mode=mode)
    relabeled, _ = scrambled.permute(relab.perm)
    return {
        "original": graph,
        "scrambled": scrambled,
        "relabeled": relabeled,
        "relabeling": relab,
        "pilot_membership": pilot.membership,
    }


def _solve_stats(graph, *, seed: int) -> dict:
    """Deterministic batch-solve summary on one layout (no wall clock)."""
    result = leiden(graph, LeidenConfig(engine="batch", seed=seed))
    sim = result.ledger.simulate(PAPER_MACHINE, MODEL_THREADS)
    return {
        "modularity": round(float(modularity(graph, result.membership)), 12),
        "passes": int(result.num_passes),
        "communities": int(result.num_communities),
        "total_work": round(float(result.ledger.total_work), 6),
        "modeled_seconds": round(float(sim.seconds), 9),
        "modeled_phase_seconds": {
            k: round(float(v), 9) for k, v in sorted(sim.phase_seconds.items())
        },
        "atomics_by_phase": {
            k: round(float(v), 6)
            for k, v in sorted(result.ledger.atomics_by_phase().items())
        },
    }


def measure_reorder_locality(
    graph_name: str,
    *,
    seed: int = 42,
    scramble_seed: int = SCRAMBLE_SEED,
    mode: str = "community",
) -> dict:
    """Deterministic locality/solve document for one registry graph.

    Everything in the returned document is byte-stable across runs
    (counting passes, modelled seconds, exact modularities — no wall
    clock), so it is committed verbatim as the ``reorder_locality``
    exact-match baseline.
    """
    graph = load_graph(graph_name, seed=1)
    layouts = build_layouts(
        graph, seed=seed, scramble_seed=scramble_seed, mode=mode)
    relab = layouts["relabeling"]
    pilot_m = layouts["pilot_membership"]
    # Exact layout invariance of quality: the scrambled solve's
    # membership expressed in relabeled ids must score identically.
    q_scrambled = float(modularity(layouts["scrambled"], pilot_m))
    q_mapped = float(modularity(
        layouts["relabeled"], relab.to_relabeled(pilot_m)))
    doc = {
        "graph": graph_name,
        "mode": mode,
        "seed": int(seed),
        "scramble_seed": int(scramble_seed),
        "num_vertices": int(graph.num_vertices),
        "num_edges": int(graph.num_edges),
        "layout_communities": int(relab.num_communities),
        "q_invariant": bool(q_scrambled == q_mapped),
        "locality": {
            name: measure_locality(layouts[name]).to_dict()
            for name in LAYOUTS
        },
        "solves": {
            name: _solve_stats(layouts[name], seed=seed)
            for name in LAYOUTS
        },
    }
    return doc


@dataclass
class ReorderLocalityResult:
    #: Per-graph deterministic documents (the baseline payload).
    measurements: Dict[str, dict]
    #: Wall-clock rows: graph/engine/layout → timing + summary.
    rows: List[dict]


def _timed_solve(graph, engine: str, *, workers: int, seed: int):
    cfg = LeidenConfig(engine=engine, seed=seed)
    if engine == "process":
        rt = Runtime(num_threads=workers, executor="process", seed=seed)
    else:
        rt = Runtime(num_threads=workers, seed=seed)
    try:
        t0 = time.perf_counter()
        result = leiden(graph, cfg, runtime=rt)
        wall = time.perf_counter() - t0
    finally:
        rt.close()
    return result, wall


def default_graphs() -> List[str]:
    from repro.bench.engines import largest_registry_graphs

    return largest_registry_graphs(2)


def run(
    graphs: Sequence[str] | None = None,
    *,
    engines: Sequence[str] = DEFAULT_ENGINES,
    workers: int = 2,
    seed: int = 42,
    scramble_seed: int = SCRAMBLE_SEED,
    mode: str = "community",
) -> ReorderLocalityResult:
    names = list(graphs) if graphs is not None else default_graphs()
    measurements: Dict[str, dict] = {}
    rows: List[dict] = []
    for name in names:
        measurements[name] = measure_reorder_locality(
            name, seed=seed, scramble_seed=scramble_seed, mode=mode)
        graph = load_graph(name, seed=1)
        layouts = build_layouts(
            graph, seed=seed, scramble_seed=scramble_seed, mode=mode)
        for engine in engines:
            for layout in LAYOUTS:
                result, wall = _timed_solve(
                    layouts[layout], engine, workers=workers, seed=seed)
                rows.append({
                    "graph": name,
                    "engine": engine,
                    "layout": layout,
                    "wall_seconds": wall,
                    "passes": int(result.num_passes),
                    "communities": int(result.num_communities),
                    "modularity": float(modularity(
                        layouts[layout], result.membership)),
                    "miss_ratio": measurements[name]["locality"][layout][
                        "miss_ratio"],
                })
    return ReorderLocalityResult(measurements=measurements, rows=rows)


def report(result: ReorderLocalityResult) -> str:
    parts: List[str] = []
    loc_rows = []
    for name, doc in result.measurements.items():
        for layout in LAYOUTS:
            loc = doc["locality"][layout]
            solve = doc["solves"][layout]
            loc_rows.append([
                name, layout,
                f"{loc['miss_ratio']:.4f}",
                f"{loc['gather_ratio']:.4f}",
                f"{solve['modeled_seconds']:.4f}",
                f"{solve['modularity']:.4f}",
                "yes" if doc["q_invariant"] else "NO",
            ])
    parts.append(format_table(
        ["Graph", "layout", "miss/edge", "lines/edge",
         "modeled s", "Q", "Q-invariant"],
        loc_rows,
        title="Extension: modelled locality per layout "
              "(batch solves, LRU gather model)",
    ))
    wall_rows = [
        [r["graph"], r["engine"], r["layout"],
         f"{r['wall_seconds']:.3f}", f"{r['modularity']:.4f}",
         f"{r['miss_ratio']:.4f}"]
        for r in result.rows
    ]
    if wall_rows:
        parts.append(format_table(
            ["Graph", "engine", "layout", "wall s", "Q", "miss/edge"],
            wall_rows,
            title="Extension: wall clock per engine and layout",
        ))
    return "\n\n".join(parts)


def main() -> ReorderLocalityResult:  # pragma: no cover - CLI
    result = run()
    print(report(result))
    return result
