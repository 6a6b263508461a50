"""Machine-readable export of the study's artefacts.

The paper's figures were hand-plotted from collected files; downstream
users of this reproduction want the same data as CSV/JSON.  This module
serializes tables (CSV), figures (CSV via ``FigureSeries.csv``) and a
whole-campaign JSON summary suitable for dashboards or regression
tracking.
"""

from __future__ import annotations

import json
from typing import Any

from repro.analysis.figures import figure1, figure2, figure3, figure4, figure5
from repro.analysis.report import campaign_block, headline_report
from repro.core.study import StudyDataset
from repro.util.tables import Table, _is_section


def table_to_csv(table: Table) -> str:
    """A Table as CSV; section rows become comment lines."""

    def cell(c: object) -> str:
        text = f"{c:.6g}" if isinstance(c, float) else str(c)
        if "," in text or '"' in text:
            text = '"' + text.replace('"', '""') + '"'
        return text

    lines = [",".join(cell(c) for c in table.columns)]
    for row in table.rows:
        if _is_section(row):
            lines.append(f"# {str(row[0]).strip('- ')}")
        else:
            lines.append(",".join(cell(c) for c in row))
    return "\n".join(lines) + "\n"


def dataset_summary(dataset: StudyDataset) -> dict[str, Any]:
    """A JSON-ready summary of one campaign."""
    telemetry = (
        dataset.telemetry.summary() if dataset.telemetry is not None else None
    )
    out = {
        "config": {
            "seed": dataset.config.seed,
            "n_days": dataset.config.n_days,
            "n_nodes": dataset.config.n_nodes,
            "n_users": dataset.config.n_users,
        },
        "campaign": campaign_block(dataset),
        "telemetry": telemetry,
        "headlines": [
            {
                "claim": h.claim,
                "paper": h.paper_value,
                "measured": h.measured_value,
                "unit": h.unit,
                "ratio": h.ratio,
            }
            for h in headline_report(dataset)
        ],
    }
    if dataset.faults is not None:
        # Key only present on faulted campaigns: healthy summaries stay
        # byte-identical to pre-fault releases (golden files pin them).
        from repro.faults.report import fault_summary

        out["faults"] = fault_summary(dataset.faults)
    return out


def dataset_to_json(dataset: StudyDataset, *, indent: int = 2) -> str:
    return json.dumps(dataset_summary(dataset), indent=indent) + "\n"


def export_all_figures(dataset: StudyDataset) -> dict[str, str]:
    """All five figures as ``{name: csv_text}``."""
    return {
        fig.name: fig.csv()
        for fig in (
            figure1(dataset),
            figure2(dataset),
            figure3(dataset),
            figure4(dataset),
            figure5(dataset),
        )
    }
