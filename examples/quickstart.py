#!/usr/bin/env python3
"""Quickstart: run a one-month NAS SP2 campaign and read the results.

This is the five-minute tour of the public API:

1. run a campaign (machine + PBS + workload + RS2HPM sampling);
2. print the paper-vs-measured headline comparison;
3. regenerate Table 2 and Figure 1 from the measured counters.

Run::

    python examples/quickstart.py [seed]
"""

import sys

from repro import StudyConfig, figure1, paper_comparison, run_study, table2


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1

    # A 30-day campaign on the full 144-node machine takes ~10 s.
    print("Running a 30-day campaign on 144 nodes...", flush=True)
    dataset = run_study(StudyConfig(seed=seed, n_days=30))

    # The headline block: every §5-§7 number, paper vs this campaign.
    print()
    print(paper_comparison(dataset))

    # Tables are regenerated from the same counter algebra the paper
    # used (per-node rates over the >2 Gflops days).
    print()
    print(table2(dataset).render())

    # Figures carry both the data series and an ASCII render.
    fig = figure1(dataset)
    print()
    print(fig.render())
    print()
    g = fig.series["daily_gflops"]
    print(
        f"Campaign: {g.mean():.2f} Gflops mean daily rate, "
        f"{len(dataset.accounting)} jobs accounted, "
        f"{dataset.accounting.time_weighted_mflops_per_node():.1f} Mflops/node "
        f"time-weighted job average."
    )


if __name__ == "__main__":
    main()
