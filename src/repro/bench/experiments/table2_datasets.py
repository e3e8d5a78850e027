"""Table 2: dataset statistics and |Γ| found by GVE-Leiden.

The paper lists, per graph, |V|, |E| (after adding reverse edges), the
average degree and the number of communities GVE-Leiden finds.  We print
the same columns for the scaled-down stand-ins next to the paper's
original values, plus the run's peak logical bytes from the memory
report (worker-count-invariant, so comparable across graphs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.bench.tables import format_table
from repro.core.config import LeidenConfig
from repro.core.leiden import leiden
from repro.datasets.registry import graph_spec, load_graph, registry_names
from repro.observability.memtrack import MemoryView
from repro.observability.recorder import Recorder, record_csr
from repro.parallel.runtime import Runtime

__all__ = ["DatasetRow", "run", "report", "main"]


@dataclass
class DatasetRow:
    name: str
    family: str
    num_vertices: int
    num_edges: int
    avg_degree: float
    num_communities: int
    #: Content hash of the CSR arrays (:meth:`CSRGraph.fingerprint`) —
    #: the identity the partition-serving store keys on; printing it per
    #: graph makes a drifting stand-in generator visible at a glance.
    fingerprint: str
    #: Memory-report peak watermark of the solve (logical bytes).
    peak_logical_bytes: int
    paper_vertices: float
    paper_edges: float
    paper_avg_degree: float
    paper_communities: float


def run(graphs: Sequence[str] | None = None, *, seed: int = 42) -> List[DatasetRow]:
    """Compute the Table 2 rows for the registry stand-ins."""
    rows = []
    for name in graphs or registry_names():
        g = load_graph(name)
        spec = graph_spec(name)
        # Same solve as the "gve" harness implementation, but through a
        # recorded runtime so the row carries peak bytes.
        recorder = Recorder()
        record_csr(recorder, g)  # input graph: loads are memoized
        with Runtime(num_threads=1, seed=seed, recorder=recorder) as rt:
            result = leiden(g, LeidenConfig(seed=seed), runtime=rt)
        rows.append(
            DatasetRow(
                name=name,
                family=spec.family,
                num_vertices=g.num_vertices,
                num_edges=g.num_edges,
                avg_degree=g.num_edges / max(g.num_vertices, 1),
                num_communities=result.num_communities,
                fingerprint=g.fingerprint(),
                peak_logical_bytes=int(MemoryView(recorder).peak_bytes()),
                paper_vertices=spec.paper_vertices,
                paper_edges=spec.paper_edges,
                paper_avg_degree=spec.paper_avg_degree,
                paper_communities=spec.paper_communities,
            )
        )
    return rows


def report(rows: List[DatasetRow]) -> str:
    table = format_table(
        ["Graph", "family", "|V|", "|E|", "Davg", "|Gamma|", "fingerprint",
         "peak MiB", "paper |V|", "paper |E|", "paper Davg",
         "paper |Gamma|"],
        [
            (r.name, r.family, r.num_vertices, r.num_edges,
             round(r.avg_degree, 1), r.num_communities,
             r.fingerprint[:12],
             round(r.peak_logical_bytes / 2**20, 2),
             f"{r.paper_vertices:.3g}",
             f"{r.paper_edges:.3g}",
             r.paper_avg_degree, f"{r.paper_communities:.3g}")
            for r in rows
        ],
        title="Table 2: datasets (stand-ins vs paper originals)",
    )
    return table


def main() -> Dict[str, List[DatasetRow]]:  # pragma: no cover - CLI
    rows = run()
    print(report(rows))
    return {"rows": rows}
