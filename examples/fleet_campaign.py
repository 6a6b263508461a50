#!/usr/bin/env python3
"""A federated campaign across three heterogeneous SP2-class centers.

The paper measured one 144-node machine; its modern descendants (XDMoD,
the Blue Waters workload report) compare workloads *across* centers.
This example builds a three-machine fleet — a memory-starved 64-node
center, the NAS reference 144-node machine, and a 256-node center with
roomy nodes but an unreliable first year — routes one shared user
population across it, and prints the cross-center comparison:
utilization, job-size distribution and application mix.

Run::

    python examples/fleet_campaign.py [seed] [days]
"""

import sys

from repro.fleet import (
    FleetSpec,
    MemberSpec,
    fleet_summary,
    render_fleet_report,
    run_fleet,
)


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    days = int(sys.argv[2]) if len(sys.argv) > 2 else 5

    spec = FleetSpec(
        name="tour",
        members=(
            MemberSpec(name="lewis", n_nodes=64, memory_mb=64, fault_profile="mild"),
            MemberSpec(name="ames", n_nodes=144),
            MemberSpec(
                name="langley", n_nodes=256, memory_mb=256, fault_profile="pathological"
            ),
        ),
        seed=seed,
        n_days=days,
        n_users=48,
    )

    print(
        f"Routing one {spec.n_users}-user population across "
        f"{len(spec.members)} centers ({spec.total_nodes} nodes) for "
        f"{days} days..."
    )
    fleet = run_fleet(spec)
    summary = fleet_summary(fleet)
    print()
    print(render_fleet_report(summary))

    # ------------------------------------------------------------------
    # What heterogeneity did: same users, same demand stream — different
    # delivered performance per center.
    print()
    by_name = {m["name"]: m for m in summary["fleet"]["members"]}
    for name in ("lewis", "ames", "langley"):
        m = by_name[name]
        faults = m.get("faults")
        if faults is None:
            fault_note = "no faults injected"
        else:
            fault_note = (
                f"{faults['events_total']} fault events, "
                f"{100.0 * faults['availability']:.1f}% available"
            )
        print(
            f"{name:>8s}: {m['routed_submissions']:3d} jobs routed, "
            f"{m['time_weighted_mflops_per_node']:5.1f} MF/node time-weighted, "
            f"{m.get('alerts_total', 0)} telemetry alerts, {fault_note}"
        )


if __name__ == "__main__":
    main()
