#!/usr/bin/env python3
"""The §6 batch-job study: Figures 2-4 and the parallelism profile.

Replays a campaign, then works entirely from the PBS accounting database
the prologue/epilogue scripts populated — the same data path the paper's
batch analysis used (600-second filter included).

Run::

    python examples/batch_job_study.py [seed] [days]
"""

import sys


from repro import StudyConfig, figure2, figure3, figure4, run_study
from repro.hpm.jobreport import render_job_report
from repro.util.tables import Table


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    days = int(sys.argv[2]) if len(sys.argv) > 2 else 30

    print(f"Running a {days}-day campaign (seed {seed})...", flush=True)
    dataset = run_study(StudyConfig(seed=seed, n_days=days))
    acct = dataset.accounting

    # ------------------------------------------------------------------
    # Parallelism profile (the Figure 2 data, tabulated)
    # ------------------------------------------------------------------
    t = Table(
        title="Batch jobs by nodes requested (>600 s wall clock, as in §6)",
        columns=("Nodes", "Jobs", "Walltime (h)", "Mean Mflops/node"),
    )
    for b in acct.walltime_by_nodes():
        t.add_row(b.nodes, b.job_count, b.total_walltime_seconds / 3600.0, b.mean_mflops_per_node)
    print()
    print(t.render())
    print(f"\nMost popular node count (by walltime): {acct.most_popular_nodes()}"
          f"  (paper: 16)")
    print(f"Time-weighted average: {acct.time_weighted_mflops_per_node():.1f} "
          f"Mflops/node  (paper: 19)")

    # ------------------------------------------------------------------
    # Figures 2-4
    # ------------------------------------------------------------------
    for fig in (figure2(dataset), figure3(dataset), figure4(dataset)):
        print()
        print(fig.render())

    f4 = figure4(dataset)
    rates = f4.series["job_mflops"]
    if rates.size:
        print(
            f"\n16-node job history: mean {rates.mean():.0f} Mflops, "
            f"std {rates.std():.0f} (paper: 320 with spread 200); "
            "no improvement trend, as the paper found."
        )

    # ------------------------------------------------------------------
    # One epilogue report, as users saw them (§3)
    # ------------------------------------------------------------------
    champion = max(acct.filtered(), key=lambda r: r.mflops_per_node)
    print(f"\nBest per-node job: {champion.app_name} on "
          f"{champion.nodes_requested} nodes at "
          f"{champion.mflops_per_node:.1f} Mflops/node "
          f"(paper's champion: 40 Mflops/node on 28 nodes).")
    print("\nIts RS2HPM epilogue report (truncated):")
    print("\n".join(render_job_report(champion).splitlines()[:14]))
    print("...")


if __name__ == "__main__":
    main()
