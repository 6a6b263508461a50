"""Sensitivity analysis: how the headline numbers move with the knobs.

The calibration in DESIGN.md rests on a handful of free parameters
(demand level, node memory, paging-disk limit).  This harness sweeps
one knob across values, runs a short campaign per value, and reports
how the study's headline metrics respond — both a robustness check on
the reproduction ("the conclusions don't hinge on one magic number")
and the counterfactual §7 invites ("what would the SP2 have delivered
with more memory per node?").
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.study import StudyConfig, run_study
from repro.power2.config import MachineConfig


@dataclass(frozen=True)
class SweepPoint:
    """One campaign's headline metrics at one knob value."""

    value: float
    daily_gflops_mean: float
    utilization_mean: float
    tw_job_mflops: float
    wide_job_mflops: float

    def row(self) -> tuple[float, float, float, float, float]:
        return (
            self.value,
            self.daily_gflops_mean,
            self.utilization_mean,
            self.tw_job_mflops,
            self.wide_job_mflops,
        )


#: Knobs the sweep understands and how each is applied.
KNOBS = ("demand_mean", "memory_bytes", "paging_fault_limit")


def _config_for(knob: str, value: float, base: StudyConfig) -> StudyConfig:
    if knob == "demand_mean":
        return dataclasses.replace(base, demand_mean=float(value))
    if knob == "memory_bytes":
        mc = dataclasses.replace(
            base.machine_config or MachineConfig(), memory_bytes=int(value)
        )
        return dataclasses.replace(base, machine_config=mc)
    if knob == "paging_fault_limit":
        mc = dataclasses.replace(
            base.machine_config or MachineConfig(), paging_fault_limit=float(value)
        )
        return dataclasses.replace(base, machine_config=mc)
    raise ValueError(f"unknown knob {knob!r}; known: {KNOBS}")


def _measure(config: StudyConfig, knob_value: float) -> SweepPoint:
    dataset = run_study(config)
    daily = dataset.daily_gflops()
    util = dataset.daily_utilization()
    wide = [
        r.mflops_per_node
        for r in dataset.accounting.filtered()
        if r.nodes_requested > 64
    ]
    return SweepPoint(
        value=knob_value,
        daily_gflops_mean=float(daily.mean()) if daily.size else 0.0,
        utilization_mean=float(util.mean()) if util.size else 0.0,
        tw_job_mflops=dataset.accounting.time_weighted_mflops_per_node(),
        wide_job_mflops=float(np.mean(wide)) if wide else float("nan"),
    )


def sweep(
    knob: str,
    values: Sequence[float],
    *,
    seed: int = 0,
    n_days: int = 12,
    n_nodes: int = 144,
    n_users: int = 40,
) -> list[SweepPoint]:
    """Run one short campaign per knob value."""
    if not values:
        raise ValueError("sweep needs at least one value")
    base = StudyConfig(seed=seed, n_days=n_days, n_nodes=n_nodes, n_users=n_users)
    return [_measure(_config_for(knob, v, base), v) for v in values]


def render_sweep(knob: str, points: list[SweepPoint]) -> str:
    lines = [
        f"Sensitivity sweep: {knob}",
        f"{'value':>12s} {'Gflops':>8s} {'util':>6s} {'tw job':>8s} {'wide jobs':>10s}",
    ]
    for p in points:
        wide = f"{p.wide_job_mflops:10.2f}" if np.isfinite(p.wide_job_mflops) else "       (—)"
        lines.append(
            f"{p.value:12.3g} {p.daily_gflops_mean:8.2f} {p.utilization_mean:6.2f} "
            f"{p.tw_job_mflops:8.1f} {wide}"
        )
    return "\n".join(lines)
