"""Headline numbers and the paper-vs-measured comparison."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.analysis.tables import busy_days
from repro.core.study import StudyDataset
from repro.hpm.derived import DerivedRates
from repro.power2.config import POWER2_590


@dataclass(frozen=True)
class Headline:
    """One claim from the paper, with our measured counterpart."""

    claim: str
    paper_value: float
    measured_value: float
    unit: str

    @property
    def ratio(self) -> float:
        if self.paper_value == 0:
            return float("inf") if self.measured_value else 1.0
        return self.measured_value / self.paper_value

    def line(self) -> str:
        return (
            f"{self.claim:<48s} paper {self.paper_value:>8.3g} {self.unit:<10s}"
            f" measured {self.measured_value:>8.3g}  (x{self.ratio:.2f})"
        )


#: Every §5–§7 claim with its paper-side value and unit, in reporting
#: order: the one place a paper value is written.  :func:`headline_report`
#: pairs each with its measured value, and the repeat layer
#: (:mod:`repro.stats`) annotates across-seed estimates with it.
PAPER_CLAIMS: dict[str, tuple[float, str]] = {
    "average daily system performance": (1.3, "Gflops"),
    "system efficiency (of aggregate peak)": (0.03, "fraction"),
    "machine average utilization": (0.64, "fraction"),
    "maximum daily utilization": (0.95, "fraction"),
    "maximum 24-hour rate": (3.4, "Gflops"),
    "maximum 15-minute rate": (5.7, "Gflops"),
    "time-weighted batch-job rate": (19.0, "Mflops/node"),
    "batch-job flops per memory instruction": (1.0, "ratio"),
    "fma fraction of the best-decile jobs": (0.80, "fraction"),
    "max 15-minute DMA traffic per node": (5.4, "MB/s"),
    "busy-day (>2 Gflops) mean performance": (2.5, "Gflops"),
    "busy-day DMA traffic per node": (1.3, "MB/s"),
    "fma fraction of workload flops": (0.54, "fraction"),
    "FPU0:FPU1 instruction ratio": (1.7, "ratio"),
    "flops per memory instruction": (0.53, "ratio"),
    "cache miss ratio (lower bound)": (0.010, "fraction"),
    "TLB miss ratio (lower bound)": (0.001, "fraction"),
    "branch fraction of instructions": (0.11, "fraction"),
    "delay per memory instruction": (0.12, "cycles"),
    "cycles per flop (busy days)": (4.0, "cycles"),
    "most popular node count": (16, "nodes"),
}


def campaign_block(dataset: StudyDataset) -> dict[str, Any]:
    """The ``--json`` campaign block: the seed and the campaign's nine
    whole-run figures (:func:`repro.stats.metrics.collect_metrics` takes
    its ``campaign.*`` metrics from here too)."""
    daily = dataset.daily_gflops()
    util = dataset.daily_utilization()[: len(daily)]
    _, interval = dataset.interval_gflops()
    idx, _ = busy_days(dataset)
    return {
        "seed": dataset.config.seed,
        "events_processed": dataset.events_processed,
        "jobs_accounted": len(dataset.accounting),
        "daily_gflops_mean": float(daily.mean()) if daily.size else 0.0,
        "daily_gflops_max": float(daily.max()) if daily.size else 0.0,
        "utilization_mean": float(util.mean()) if util.size else 0.0,
        "utilization_max": float(util.max()) if util.size else 0.0,
        "interval_gflops_max": float(interval.max()) if interval.size else 0.0,
        "busy_days": len(idx),
        "time_weighted_mflops_per_node": dataset.accounting.time_weighted_mflops_per_node(),
    }


def headline_report(dataset: StudyDataset) -> list[Headline]:
    """Every §5–§7 headline number, paper vs measured, in
    :data:`PAPER_CLAIMS` order.  The busy-day claims need a day over
    2 Gflops, and the node-count claim a finished job."""
    block = campaign_block(dataset)
    _, rates = busy_days(dataset)
    acct = dataset.accounting
    peak_gflops = dataset.config.n_nodes * POWER2_590.peak_mflops / 1e3
    _, dma = dataset.interval_dma_bytes_per_node()

    measured = {
        "average daily system performance": block["daily_gflops_mean"],
        "system efficiency (of aggregate peak)": (
            block["daily_gflops_mean"] / peak_gflops if peak_gflops else 0.0
        ),
        "machine average utilization": block["utilization_mean"],
        "maximum daily utilization": block["utilization_max"],
        "maximum 24-hour rate": block["daily_gflops_max"],
        "maximum 15-minute rate": block["interval_gflops_max"],
        "time-weighted batch-job rate": block["time_weighted_mflops_per_node"],
        "batch-job flops per memory instruction": acct.mean_flops_per_memref(),
        "fma fraction of the best-decile jobs": acct.top_decile_fma_fraction(),
        # §5 cannot separate message, disk and paging DMA, and neither
        # can we: both numbers are all-causes DMA traffic per node.
        "max 15-minute DMA traffic per node": float(dma.max()) / 1e6 if dma.size else 0.0,
    }
    if rates:

        def mean(rate: Callable[[DerivedRates], float]) -> float:
            return float(np.mean([rate(r) for r in rates]))

        measured.update({
            "busy-day (>2 Gflops) mean performance": mean(lambda r: r.gflops_system()),
            "busy-day DMA traffic per node": mean(lambda r: r.dma_bytes_per_s) / 1e6,
            "fma fraction of workload flops": mean(lambda r: r.fma_flop_fraction),
            "FPU0:FPU1 instruction ratio": mean(lambda r: r.fpu_ratio),
            "flops per memory instruction": mean(lambda r: r.flops_per_memory_inst),
            "cache miss ratio (lower bound)": mean(lambda r: r.dcache_miss_ratio),
            "TLB miss ratio (lower bound)": mean(lambda r: r.tlb_miss_ratio),
            "branch fraction of instructions": mean(lambda r: r.branch_fraction),
            "delay per memory instruction": mean(lambda r: r.delay_per_memory_inst()),
            # §5: "This performance rate corresponds to about 1 FLOP
            # every 4 cycles" on the busy days.
            "cycles per flop (busy days)": float(
                POWER2_590.clock_hz / np.mean([r.mflops_total for r in rates]) / 1e6
            ),
        })
    try:
        measured["most popular node count"] = float(acct.most_popular_nodes())
    except ValueError:
        pass
    return [
        Headline(claim, paper, measured[claim], unit)
        for claim, (paper, unit) in PAPER_CLAIMS.items()
        if claim in measured
    ]


def paper_comparison(dataset: StudyDataset) -> str:
    """Human-readable headline block (printed by the bench harness)."""
    lines = ["Paper vs measured (this campaign):", ""]
    lines += [h.line() for h in headline_report(dataset)]
    return "\n".join(lines)
