"""Extension experiment: sensitivity of the headlines to the free knobs.

Three sweeps, each a robustness claim:

* **demand_mean** — performance scales with offered load (Figure 1's
  fluctuations are demand, §5), roughly linearly below saturation;
* **memory_bytes** — §7's counterfactual: with bigger node memories the
  wide jobs recover (it was oversubscription, not width);
* **paging_fault_limit** — the fault-service ceiling sets how much time
  thrashing steals from a wide job, yet the whole-campaign averages
  barely move either way: the pathology hides inside the averages,
  which is exactly why the paper needed the per-job system/user FXU
  split to find it (§5/§6).

Each sweep is a one-axis :class:`~repro.sweep.SweepSpec`.  The bench
runs each planned cell's config itself, because the wide-job column
needs the campaign's job records, which a sweep cell does not keep.
"""

from dataclasses import dataclass

import numpy as np

from repro.core.study import StudyConfig, run_study
from repro.sweep import SweepSpec, plan_sweep


@dataclass(frozen=True)
class SweepPoint:
    """One campaign's headline metrics at one knob value."""

    value: float
    daily_gflops_mean: float
    utilization_mean: float
    tw_job_mflops: float
    wide_job_mflops: float


def _measure(config: StudyConfig, value: float) -> SweepPoint:
    dataset = run_study(config)
    daily = dataset.daily_gflops()
    util = dataset.daily_utilization()
    wide = [
        r.mflops_per_node
        for r in dataset.accounting.filtered()
        if r.nodes_requested > 64
    ]
    return SweepPoint(
        value=value,
        daily_gflops_mean=float(daily.mean()) if daily.size else 0.0,
        utilization_mean=float(util.mean()) if util.size else 0.0,
        tw_job_mflops=dataset.accounting.time_weighted_mflops_per_node(),
        wide_job_mflops=float(np.mean(wide)) if wide else float("nan"),
    )


def sweep(axis, values, *, seed, shown=None):
    """One 8-day campaign on 144 nodes and 40 users per value of
    ``axis``.  ``shown`` reads a row's printed value from the cell's
    config (default: the axis value)."""
    spec = SweepSpec(
        name=axis,
        base={"seed": seed, "n_days": 8, "n_nodes": 144, "n_users": 40},
        axes={axis: list(values)},
    )
    return [
        _measure(cell.config, shown(cell.config) if shown else cell.overrides[axis])
        for cell in plan_sweep(spec).cells
    ]


def render_sweep(knob, points):
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


def test_demand_sweep(benchmark, capsys):
    points = benchmark.pedantic(
        lambda: sweep("demand_mean", [0.2, 0.45, 0.8], seed=3),
        rounds=1,
        iterations=1,
    )
    g = [p.daily_gflops_mean for p in points]
    u = [p.utilization_mean for p in points]
    assert g[0] < g[1] < g[2]  # more demand, more Gflops
    assert u[0] < u[1] < u[2]
    # Per-job rates stay put: demand moves load, not code quality.
    tw = [p.tw_job_mflops for p in points]
    assert max(tw) < 1.5 * min(tw)
    with capsys.disabled():
        print()
        print(render_sweep("demand_mean", points))


def test_memory_sweep(benchmark, capsys):
    points = benchmark.pedantic(
        lambda: sweep(
            "memory_mb",
            [128, 256, 512],
            seed=5,
            shown=lambda config: config.machine_config.memory_bytes,
        ),
        rounds=1,
        iterations=1,
    )
    wide = [p.wide_job_mflops for p in points]
    finite = [w for w in wide if np.isfinite(w)]
    if len(finite) >= 2:
        # §7 counterfactual: more memory, faster wide jobs.
        assert finite[-1] > 1.5 * finite[0]
    with capsys.disabled():
        print()
        print(render_sweep("memory_bytes", points))


def test_paging_disk_sweep(benchmark, capsys):
    points = benchmark.pedantic(
        lambda: sweep("paging_fault_limit", [40.0, 110.0, 300.0], seed=5),
        rounds=1,
        iterations=1,
    )
    # Whole-campaign averages barely move (paging jobs are a small
    # share), which is itself the §5 point: the counters' averages hid
    # the pathology.
    g = [p.daily_gflops_mean for p in points]
    assert max(g) < 1.4 * min(g)
    with capsys.disabled():
        print()
        print(render_sweep("paging_fault_limit", points))
