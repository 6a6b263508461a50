"""The paper's analysis: every table and figure, regenerated.

Table and figure generators take a :class:`~repro.core.study.StudyDataset`
(plus, for Table 4's single-kernel columns, the kernel models directly)
and return structured data — :class:`~repro.util.tables.Table` objects
for tables, series/scatter dataclasses for figures — with ASCII renders
for terminal inspection.  The benchmark harness under ``benchmarks/``
prints exactly these.
"""

from repro.analysis.tables import table1, table2, table3, table4
from repro.analysis.figures import (
    FigureSeries,
    figure1,
    figure2,
    figure3,
    figure4,
    figure4_all_node_counts,
    figure5,
)
from repro.analysis.report import headline_report, paper_comparison
from repro.analysis.export import (
    dataset_summary,
    dataset_to_json,
    export_all_figures,
    table_to_csv,
)
from repro.analysis.opsreport import campaign_ops_digest, day_ops, render_day_report
from repro.analysis.trends import trend_report, user_histories

__all__ = [
    "table1",
    "table2",
    "table3",
    "table4",
    "FigureSeries",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure4_all_node_counts",
    "figure5",
    "headline_report",
    "dataset_summary",
    "dataset_to_json",
    "export_all_figures",
    "table_to_csv",
    "campaign_ops_digest",
    "day_ops",
    "render_day_report",
    "trend_report",
    "user_histories",
    "paper_comparison",
]
