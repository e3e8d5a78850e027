"""Experiment drivers, one per table/figure of the paper's Section 5.

Every module exposes ``run(...)`` returning a structured result and
``report(result)`` returning the printable table(s); ``main()`` does
both.  ``python -m repro.bench`` runs them all in paper order.
"""

from repro.bench.experiments import (
    ext_dynamic_update,
    ext_louvain_vs_leiden,
    ext_service_load,
    fig1_fig2_refinement,
    fig3_fig4_supervertex,
    fig6_comparison,
    fig7_splits,
    fig8_rate,
    fig9_scaling,
    sec55_indirect,
    table1_speedup,
    table2_datasets,
)

#: Paper order (extensions last), used by ``python -m repro.bench``.
ALL_EXPERIMENTS = [
    ("Table 1", table1_speedup),
    ("Table 2", table2_datasets),
    ("Figures 1-2", fig1_fig2_refinement),
    ("Figures 3-4", fig3_fig4_supervertex),
    ("Figure 6", fig6_comparison),
    ("Figure 7", fig7_splits),
    ("Figure 8", fig8_rate),
    ("Figure 9", fig9_scaling),
    ("Section 5.5", sec55_indirect),
    ("Extension: Louvain vs Leiden", ext_louvain_vs_leiden),
    ("Extension: dynamic updates", ext_dynamic_update),
    ("Extension: service load", ext_service_load),
]

__all__ = [
    "ALL_EXPERIMENTS",
    "ext_dynamic_update",
    "ext_louvain_vs_leiden",
    "ext_service_load",
    "fig1_fig2_refinement",
    "fig3_fig4_supervertex",
    "fig6_comparison",
    "fig7_splits",
    "fig8_rate",
    "fig9_scaling",
    "sec55_indirect",
    "table1_speedup",
    "table2_datasets",
]
