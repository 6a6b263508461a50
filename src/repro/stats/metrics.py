"""Flatten one campaign into ``{metric: value}`` for the repeater.

One repeat = one seed = one dict.  Keys are stable, namespaced strings:

* ``campaign.*`` — the ``--json`` campaign block (always present);
* ``headline.<claim>`` — every §5–§7 headline's measured value;
* ``table2.<row>.avg`` / ``table3.<section>.<row>.avg`` — the busy-day
  table cells (present only when the seed produced busy days — short
  campaigns on quiet seeds legitimately miss them, and the repeater
  records per-metric seed lists so the estimates stay honest);
* ``table4.<column>.<rate>`` — the hierarchical-memory cells.

The row layouts are imported from :mod:`repro.analysis.tables`, so a
table edit automatically propagates to the statistical layer.
"""

from __future__ import annotations

from repro.analysis.report import campaign_block, headline_report
from repro.analysis.tables import (
    TABLE2_ROWS,
    TABLE3_SECTIONS,
    busy_days,
    table4_values,
)
from repro.core.study import StudyDataset

#: The stopping rules' default target statistic.
DEFAULT_TARGET_METRIC = "campaign.daily_gflops_mean"


def collect_metrics(dataset: StudyDataset) -> dict[str, float]:
    """Every reported number of one campaign, as a flat float dict."""
    _, rates = busy_days(dataset)
    block = campaign_block(dataset)
    # The metric dict has always led with the job count.
    out = {"campaign.jobs_accounted": float(block["jobs_accounted"])}
    out.update((f"campaign.{k}", float(v)) for k, v in block.items() if k != "seed")

    # Availability block: the fault axis's first-order observables.  A
    # healthy campaign is *exactly* up — 1.0 availability, zero downtime,
    # zero kills, with zero across-seed variance — so any real fault
    # process separates from it with non-overlapping CIs, which is what
    # differential sweep reports flag.
    log = dataset.faults
    out["campaign.availability"] = float(log.availability()) if log is not None else 1.0
    out["campaign.node_down_hours"] = (
        float(log.node_down_seconds / 3600.0) if log is not None else 0.0
    )
    out["campaign.jobs_killed"] = float(log.jobs_killed) if log is not None else 0.0

    for h in headline_report(dataset):
        out[f"headline.{h.claim}"] = float(h.measured_value)

    if rates:
        for label, get in TABLE2_ROWS:
            out[f"table2.{label}.avg"] = float(
                sum(get(r) for r in rates) / len(rates)
            )
        for section, entries in TABLE3_SECTIONS:
            for label, get in entries:
                out[f"table3.{section}.{label}.avg"] = float(
                    sum(get(r) for r in rates) / len(rates)
                )
        for key, value in table4_values(dataset).items():
            out[f"table4.{key}"] = float(value)
    return out
