#!/usr/bin/env python3
"""Live operations: the telemetry the NAS operators did not have.

The paper found the §6 paging pathology months after the fact, by mining
nine months of collected files. This example runs a short campaign with
the streaming telemetry subsystem attached and shows what an operator
would have seen *while it happened*: the live metric feed, the alerts
the rule engine raised, campaign-wide streaming quantiles (P² sketches,
no raw history kept), and the per-job rollups frozen at each epilogue.

The same views are available from the shell::

    sp2-ops alerts --days 3 --seed 1
    sp2-ops tail   --days 3 --seed 1 --limit 24
    sp2-ops query  --metric fxu.sys_user_ratio --days 3 --seed 1 --plot
    sp2-ops jobs   --days 3 --seed 1 --top 10

Run::

    python examples/live_ops.py [seed] [days]
"""

import sys

from repro import StudyConfig, run_study
from repro.telemetry import render_alerts
from repro.util.tables import Table


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    days = int(sys.argv[2]) if len(sys.argv) > 2 else 3

    print(f"Running a {days}-day campaign (seed {seed}) with live telemetry...",
          flush=True)
    dataset = run_study(StudyConfig(seed=seed, n_days=days))
    t = dataset.telemetry

    # ------------------------------------------------------------------
    # What the rule engine caught, as it happened
    # ------------------------------------------------------------------
    print()
    print("Alerts raised online:")
    print(render_alerts(t.engine.alerts))
    by_rule = t.engine.counts_by_rule()
    print(f"\n{len(t.engine.alerts)} alerts ({t.engine.suppressed} repeats "
          f"suppressed by cooldown): "
          + ", ".join(f"{r}={n}" for r, n in sorted(by_rule.items())))

    # ------------------------------------------------------------------
    # Streaming summaries: quantiles from P² sketches, not raw history
    # ------------------------------------------------------------------
    summaries = Table(
        title="Campaign metric summaries (streaming aggregates)",
        columns=("Metric", "n", "Last", "EWMA", "p50", "p99", "Max"),
    )
    for name in ("gflops.system", "fxu.sys_user_ratio", "tlb.miss_rate",
                 "mflops.node", "jobs.active"):
        s = t.store.summary(name)
        summaries.add_row(name, s.count, s.last, s.ewma,
                          s.quantiles[0.5], s.quantiles[0.99], s.max)
    print()
    print(summaries.render())

    # ------------------------------------------------------------------
    # Per-job rollups, frozen at epilogue time
    # ------------------------------------------------------------------
    top = Table(
        title="Top finished jobs by total Mflops (from live rollups)",
        columns=("Job", "User", "Nodes", "Mflops", "Sys/usr FXU"),
    )
    for r in t.rollups.top_by_mflops(8):
        top.add_row(r.record.job_id, r.record.user, r.record.nodes_requested,
                    r.total_mflops, r.system_user_fxu_ratio)
    print()
    print(top.render())

    suspects = t.rollups.paging_suspects()
    print(f"\n{len(t.rollups)} jobs finished; "
          f"{len(suspects)} flagged as paging suspects "
          f"(per-job system/user FXU ratio > 0.5).")


if __name__ == "__main__":
    main()
