#!/usr/bin/env python3
"""A faulted campaign, end to end: injection, reporting, crash + resume.

§6 of the paper is a catalogue of pathology — paging storms,
unreachable nodes, lost samples.  This example runs a short campaign
under the ``pathological`` fault profile and walks the resilience
surface: the availability/MTBF table, the live fault alerts, the
gap-flagged collector intervals — then kills a shard worker on purpose
(the ``REPRO_CRASH_SHARD`` hook), watches the campaign hard-fail, and
resumes it from the surviving checkpoints to byte-identical output.

Run::

    python examples/fault_campaign.py [seed] [days]
"""

import os
import sys
import tempfile

from repro.analysis.export import dataset_to_json
from repro.core.study import StudyConfig, run_study
from repro.faults import FaultProfile
from repro.faults.report import render_fault_report
from repro.parallel import ShardExecutionError
from repro.parallel.worker import CRASH_ENV_VAR
from repro.telemetry.rules import render_alert


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    days = int(sys.argv[2]) if len(sys.argv) > 2 else 8

    # ------------------------------------------------------------------
    # 1. A faulted campaign and what it did to the measurement
    print(f"Running a {days}-day campaign under the 'pathological' profile...")
    cfg = StudyConfig(seed=seed, n_days=days, n_nodes=32, n_users=10,
                      fault_profile=FaultProfile.named("pathological"))
    dataset = run_study(cfg)
    log = dataset.faults
    print()
    print(render_fault_report(log))

    print()
    print("First fault alerts the streaming side raised:")
    fault_alerts = [a for a in dataset.telemetry.alerts if a.rule == "fault"]
    for alert in fault_alerts[:6]:
        print("  " + render_alert(alert))
    print(f"  ... {len(fault_alerts)} fault alerts in total")

    gaps = dataset.collector.gap_intervals()
    print()
    print(f"Collector passes dropped: {dataset.collector.passes_dropped} "
          f"({len(gaps)} gap-spanning intervals flagged 'interpolated')")
    for iv in gaps[:3]:
        print(f"  interval {iv.start / 3600:7.2f}h -> {iv.end / 3600:7.2f}h "
              f"spans {iv.seconds / 900:.0f} cadence periods")

    # ------------------------------------------------------------------
    # 2. Kill a shard worker, hard-fail, resume — byte-identical output
    print()
    print("Now the operational failure: a shard worker dies mid-campaign.")
    reference = run_study(cfg, shard_days=2)

    with tempfile.TemporaryDirectory(prefix="sp2-ckpt-") as ckpt:
        os.environ[CRASH_ENV_VAR] = "1"  # shard 1's worker will die
        try:
            run_study(cfg, shard_days=2, checkpoint_dir=ckpt, shard_attempts=1)
        except ShardExecutionError as err:
            print(f"  campaign failed as expected: {err}")
        finally:
            del os.environ[CRASH_ENV_VAR]

        survivors = sorted(f for f in os.listdir(ckpt) if f.endswith(".pkl"))
        print(f"  surviving checkpoints: {', '.join(survivors)}")

        resumed = run_study(cfg, shard_days=2, checkpoint_dir=ckpt, resume=True)

    identical = dataset_to_json(resumed) == dataset_to_json(reference)
    print(f"  resumed output byte-identical to uninterrupted run: {identical}")
    if not identical:
        raise SystemExit("resume equivalence violated")


if __name__ == "__main__":
    main()
