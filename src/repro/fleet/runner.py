"""The federation runner: one fleet campaign, member by member.

Each member machine runs its routed share of the fleet demand as an
ordinary single-machine campaign through
:func:`repro.core.study.run_study` — serially by default, or as
day-range shards when ``shard_days`` is given.  Determinism contract,
extending the shard runner's:

* every member's dataset is a pure function of ``(spec, member name)``
  — never of member ordering, worker count, or scheduling order (fault
  schedules come from a member-*name*-keyed RNG namespace, traces from
  the fleet-level routed stream);
* a **single-member** fleet run is byte-identical to the single-machine
  :func:`repro.core.study.run_study` path at the same seed — same
  trace, same fault schedule, same samples, same reports.  A one-member
  fleet *is* the single-machine study (its fault namespace is the
  campaign root, not a member key, to keep that contract exact even
  under fault injection).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from repro.core.study import StudyDataset, run_study
from repro.fleet.routing import FleetTrace, generate_fleet_trace
from repro.fleet.spec import FleetSpec, MemberSpec
from repro.telemetry.bus import EventBus
from repro.util.rng import member_key


@dataclass
class MemberResult:
    """One machine's campaign inside a fleet run."""

    spec: MemberSpec
    dataset: StudyDataset


@dataclass
class FleetDataset:
    """Everything a fleet campaign measured, per member."""

    spec: FleetSpec
    trace: FleetTrace
    members: list[MemberResult]

    def member(self, name: str) -> StudyDataset:
        for m in self.members:
            if m.spec.name == name:
                return m.dataset
        raise KeyError(f"no fleet member named {name!r}")

    def datasets(self) -> dict[str, StudyDataset]:
        return {m.spec.name: m.dataset for m in self.members}


def _member_fault_namespace(spec: FleetSpec, member: MemberSpec) -> tuple[int, ...]:
    """Single-member fleets use the campaign-root tree (the degenerate
    contract above); real fleets key each member's faults by name."""
    if len(spec.members) == 1:
        return ()
    return member_key(member.name)


def run_fleet(
    spec: FleetSpec,
    *,
    shard_days: int | None = None,
    workers: int = 1,
    member_hook: Callable[[MemberSpec, EventBus], None] | None = None,
) -> FleetDataset:
    """Run the whole fleet campaign and return the per-member datasets.

    With ``shard_days``, each member campaign runs as day-range shards of
    its routed trace on ``workers`` processes; member output depends on
    the shard plan but never on the worker count, exactly like
    single-machine campaigns.

    ``member_hook`` is called with ``(member_spec, bus)`` before each
    member campaign publishes its first event — the seam the ops service
    uses to tap member buses for federation (taps only subscribe extra
    consumers, so hooked runs stay byte-identical).  A sharded member's
    bus is its merge's replay bus (:func:`~repro.core.study.run_study`).
    """
    trace = generate_fleet_trace(spec)
    results: list[MemberResult] = []
    for member in spec.members:
        bus_hook = None
        if member_hook is not None:
            bus_hook = functools.partial(member_hook, member)
        dataset = run_study(
            spec.member_config(member),
            shard_days=shard_days,
            workers=workers,
            trace=trace.member_traces[member.name],
            fault_namespace=_member_fault_namespace(spec, member),
            bus_hook=bus_hook,
        )
        results.append(MemberResult(spec=member, dataset=dataset))
    return FleetDataset(spec=spec, trace=trace, members=results)
