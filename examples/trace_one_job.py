#!/usr/bin/env python3
"""Trace one 16-node batch job and read its critical path.

Wires a minimal traced stack — simulator, SP2 machine, PBS — submits a
single 16-node CFD job, and prints the span tree's verdict: where the
job's wall time went (compute / switch wait / I/O / paging) and the
longest dependency chain.  The same drill-down `sp2-trace critical-path`
gives for every job of a recorded campaign.

Run::

    python examples/trace_one_job.py [seed]
"""

import sys
from collections import Counter

import numpy as np

from repro.cluster.machine import SP2Machine
from repro.pbs.scheduler import PBSServer
from repro.sim.engine import Simulator
from repro.tracing import Tracer, analyze_jobs, render_critical_path
from repro.workload.apps import application


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7

    # ------------------------------------------------------------------
    # A traced 16-node stack.
    # ------------------------------------------------------------------
    sim = Simulator()
    tracer = Tracer(lambda: sim.now)
    sim.tracer = tracer
    machine = SP2Machine(16)
    pbs = PBSServer(sim, machine, tracer=tracer)

    # One concrete job from the workload's majority family (§4).
    rng = np.random.default_rng(seed)
    profile = application("multiblock_cfd").instantiate(rng, nodes=16)
    print(
        f"Submitting one {profile.app_name} job: 16 nodes, "
        f"{profile.walltime_seconds / 3600:.1f} h requested, "
        f"{profile.memory_bytes_per_node / 2**20:.0f} MB/node"
    )
    pbs.submit("examples", profile.app_name, 16, profile)
    sim.run()

    # ------------------------------------------------------------------
    # The span tree's verdict.
    # ------------------------------------------------------------------
    (path,) = analyze_jobs(tracer.spans)
    print()
    print(render_critical_path(path))

    root = tracer.job_roots()[0]
    wall = path.wall_seconds
    waits = wall - path.breakdown.get("compute", 0.0)
    mflops = root.args.get("mflops", 0.0)  # whole-job Mflops rate
    print()
    print("flop/s vs wait:")
    print(f"  sustained        {mflops / path.nodes if path.nodes else 0.0:8.1f} Mflops/node")
    print(
        f"  compute time     {path.breakdown.get('compute', 0.0):8.0f} s "
        f"({path.fraction('compute'):.1%} of wall)"
    )
    print(f"  waiting          {waits:8.0f} s ({waits / wall if wall else 0.0:.1%})")
    for kind in ("switch-wait", "io", "paging"):
        if path.breakdown.get(kind, 0.0) > 0:
            print(f"    {kind:<12s} {path.breakdown[kind]:8.0f} s")
    print(
        "  (waits tick no user counters — §5's 'invisible' time, now "
        "attributed span by span)"
    )

    print(f"\n{len(tracer.spans)} spans recorded; categories:")
    for cat, n in sorted(Counter(s.category for s in tracer.spans).items()):
        print(f"  {cat:<14s} {n}")


if __name__ == "__main__":
    main()
