"""Fleet federation: many heterogeneous SP2-class machines, one workload.

The paper measured one 144-node SP2 for one month; this package scales
that methodology across a *fleet* — N machines with heterogeneous node
counts, memory sizes and fault profiles, fed by a shared user population
whose jobs are routed across centers, with XDMoD-style cross-machine
analysis over the merged results.

Layers:

* :mod:`repro.fleet.spec` — declarative :class:`FleetSpec` /
  :class:`MemberSpec` (validated, JSON round-trip, presets);
* :mod:`repro.fleet.routing` — shared demand generation plus
  home-center / least-loaded / round-robin routing policies;
* :mod:`repro.fleet.runner` — member campaigns through the serial or
  sharded runner, deterministic per ``(spec, member name)``;
* :mod:`repro.fleet.analysis` — per-center utilization, job-size and
  application-mix comparison tables plus the ``--json`` fleet block.
"""

from repro.fleet.analysis import (
    app_mix_table,
    compare_fleets,
    fleet_summary,
    job_size_table,
    render_fleet_report,
    utilization_table,
)
from repro.fleet.routing import FleetTrace, generate_fleet_trace, make_policy
from repro.fleet.runner import FleetDataset, MemberResult, run_fleet
from repro.fleet.spec import (
    PRESETS,
    ROUTING_POLICIES,
    FleetSpec,
    MemberSpec,
    preset,
)

__all__ = [
    "PRESETS",
    "ROUTING_POLICIES",
    "FleetDataset",
    "FleetSpec",
    "FleetTrace",
    "MemberResult",
    "MemberSpec",
    "app_mix_table",
    "compare_fleets",
    "fleet_summary",
    "generate_fleet_trace",
    "job_size_table",
    "make_policy",
    "preset",
    "render_fleet_report",
    "run_fleet",
    "utilization_table",
]
