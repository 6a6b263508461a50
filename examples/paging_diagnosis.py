#!/usr/bin/env python3
"""The §6 paging diagnosis — the paper's "surprising finding".

Three views of the same mechanism:

1. a controlled experiment: the same job run at increasing memory
   demand, showing the fault rate, the system/user FXU inversion, and
   the performance collapse;
2. the campaign-level Figure 5 scatter (day performance vs system
   intervention);
3. the >64-node cliff of Figure 3, which the paper traced to paging.

Run::

    python examples/paging_diagnosis.py
"""

import numpy as np

from repro import StudyConfig, figure3, figure5, run_study
from repro.cluster.machine import SP2Machine
from repro.pbs.scheduler import PBSServer
from repro.sim.engine import Simulator
from repro.util.rng import RngStreams
from repro.util.tables import Table
from repro.workload.apps import application

MB = 1024 * 1024


def controlled_experiment() -> None:
    """One app, swept across memory demand: §6 in a test tube."""
    t = Table(
        title="Controlled §6 experiment: one 16-node CFD job vs memory demand",
        columns=(
            "Demand (MB/node)",
            "Mflops/node",
            "sys/user FXU",
            "slowdown",
        ),
    )
    rng = RngStreams(42)
    baseline = None
    for demand_mb in (96, 120, 128, 134, 140, 150, 170, 200):
        sim = Simulator()
        server = PBSServer(sim, SP2Machine(16))
        profile = application("multiblock_cfd").instantiate(
            rng.get(f"paging.{demand_mb}"), nodes=16
        )
        # Override the sampled demand with the sweep value.
        object.__setattr__(profile, "memory_bytes_per_node", demand_mb * MB)
        server.submit(0, "sweep", 16, profile)
        sim.run()
        rec = server.accounting.records[0]
        rate = rec.mflops_per_node
        if baseline is None:
            baseline = rate
        t.add_row(
            demand_mb,
            rate,
            rec.system_user_fxu_ratio,
            f"x{baseline / rate:.1f}" if rate > 0 else "stalled",
        )
    print(t.render())
    print(
        "\nThe fault rate saturates the paging disk shortly past 128 MB: user\n"
        "progress collapses while the VMM's system-mode FXU work explodes —\n"
        "exactly the counter signature §6 used to diagnose the wide jobs."
    )


def campaign_views() -> None:
    print("\nRunning a 30-day campaign for the workload-level views...", flush=True)
    dataset = run_study(StudyConfig(seed=1, n_days=30))

    fig5 = figure5(dataset)
    print()
    print(fig5.render())
    x, y = fig5.series["x"], fig5.series["y"]
    if x.size >= 3 and x.std() > 0:
        r = np.corrcoef(x, y)[0, 1]
        print(f"\nday-level correlation(performance, system intervention) = {r:+.2f}"
              "  (paper: strongly negative)")

    fig3 = figure3(dataset)
    xs, ys = fig3.series["x"], fig3.series["y"]
    narrow = ys[(xs >= 8) & (xs <= 64)]
    wide = ys[xs > 64]
    print(
        f"\nFigure 3 cliff: {narrow.mean():.1f} Mflops/node at 8-64 nodes vs "
        f"{wide.mean() if wide.size else float('nan'):.1f} beyond 64 "
        "(paper: sustained to 64, sharp decrease past it)."
    )


def main() -> None:
    controlled_experiment()
    campaign_views()


if __name__ == "__main__":
    main()
