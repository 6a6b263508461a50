"""Shared fleet demand, routed onto member machines.

One demand model feeds the whole fleet, drawn by the single-machine
loop itself (:func:`repro.workload.traces.draw_traces`) from the *fleet*
seed's root streams, with a routing policy choosing each job's member.
Routing decisions consume no draws from the submission stream (policies
are either deterministic or draw from their own ``fleet.*`` streams), so:

* a **single-member** fleet draws the single-machine trace at the same
  seed, under *any* policy;
* routed member traces always partition the fleet stream — job counts
  sum to the fleet demand no matter the policy or fleet shape.

Per day, the node-second budget is ``demand × total fleet nodes``, the
fleet-scale analogue of one machine's ``demand × n_nodes``; each drawn
job's node count is clamped to its member's capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.fleet.spec import FleetSpec
from repro.util.rng import RngStreams
from repro.workload.apps import ApplicationTemplate
from repro.workload.traces import CampaignTrace, draw_traces


@dataclass
class FleetTrace:
    """The routed fleet submission stream.

    ``member_traces`` hold each machine's share on the *campaign* clock;
    ``assignments`` records the routing decision per fleet submission in
    draw order (diagnostics and the routing property tests).
    """

    spec: FleetSpec
    member_traces: dict[str, CampaignTrace]
    demand_levels: np.ndarray
    assignments: list[str] = field(default_factory=list)

    @property
    def total_submissions(self) -> int:
        return len(self.assignments)

    def routed_counts(self) -> dict[str, int]:
        return {name: len(t.submissions) for name, t in self.member_traces.items()}


class RoutingPolicy:
    """Chooses a member index for each drawn job.

    ``choose`` must not consume from the submission stream — policies are
    deterministic functions of the routing state (plus their own named
    streams, drawn up-front) so they never shift the submission loop's
    random draws, and a single-member fleet draws the single-machine
    trace.
    """

    name = "abstract"

    def choose(self, user_id: int, app: ApplicationTemplate, eligible: list[int]) -> int:
        raise NotImplementedError

    def commit(self, member_index: int, node_seconds: float) -> None:
        """Observe the routed job (load trackers use this)."""


class HomeCenterPolicy(RoutingPolicy):
    """Every user has a home center; jobs run there when they fit.

    Homes are drawn once per user from the ``fleet.homes`` stream,
    weighted by member capacity — big centers host more users, the way
    allocations are granted.  A job whose application cannot run on the
    home machine falls back to the largest eligible member.
    """

    name = "home-center"

    def __init__(self, spec: FleetSpec, streams: RngStreams) -> None:
        rng = streams.get("fleet.homes")
        weights = np.array([m.n_nodes for m in spec.members], dtype=float)
        weights /= weights.sum()
        self._members = spec.members
        self.homes = [
            int(rng.choice(len(spec.members), p=weights)) for _ in range(spec.n_users)
        ]

    def choose(self, user_id: int, app: ApplicationTemplate, eligible: list[int]) -> int:
        home = self.homes[user_id]
        if home in eligible:
            return home
        return max(eligible, key=lambda i: (self._members[i].n_nodes, -i))


class LeastLoadedPolicy(RoutingPolicy):
    """Route to the eligible member with the lowest committed load.

    Load is routed node-seconds over capacity — the meta-scheduler view
    of "which center has the shortest queue" without simulating the
    queues themselves.  Ties break toward the earlier member, so the
    decision is a pure function of the routing history.
    """

    name = "least-loaded"

    def __init__(self, spec: FleetSpec, streams: RngStreams) -> None:
        self._capacity = [float(m.n_nodes) for m in spec.members]
        self._committed = [0.0] * len(spec.members)

    def choose(self, user_id: int, app: ApplicationTemplate, eligible: list[int]) -> int:
        return min(eligible, key=lambda i: (self._committed[i] / self._capacity[i], i))

    def commit(self, member_index: int, node_seconds: float) -> None:
        self._committed[member_index] += node_seconds


class RoundRobinPolicy(RoutingPolicy):
    """Cycle through the members, skipping ineligible ones."""

    name = "round-robin"

    def __init__(self, spec: FleetSpec, streams: RngStreams) -> None:
        self._n = len(spec.members)
        self._next = 0

    def choose(self, user_id: int, app: ApplicationTemplate, eligible: list[int]) -> int:
        for step in range(self._n):
            candidate = (self._next + step) % self._n
            if candidate in eligible:
                self._next = (candidate + 1) % self._n
                return candidate
        raise AssertionError("choose() called with no eligible member")


_POLICIES = {
    HomeCenterPolicy.name: HomeCenterPolicy,
    LeastLoadedPolicy.name: LeastLoadedPolicy,
    RoundRobinPolicy.name: RoundRobinPolicy,
}


def make_policy(spec: FleetSpec, streams: RngStreams) -> RoutingPolicy:
    """Instantiate the spec's routing policy (validated by FleetSpec)."""
    try:
        cls = _POLICIES[spec.routing]
    except KeyError:  # pragma: no cover - FleetSpec already rejects this
        raise ValueError(f"unknown routing policy {spec.routing!r}") from None
    return cls(spec, streams)


def generate_fleet_trace(spec: FleetSpec) -> FleetTrace:
    """Draw the shared fleet demand and route it onto the members.

    The draw is :func:`repro.workload.traces.draw_traces` over the
    members' node counts with the spec's routing policy; profiles are
    evaluated on the stock geometry, as no profile reads the memory size
    members differ in.

    Routing runs over the members in *name order*, whatever order the
    spec lists them in: homes, load tie-breaks and round-robin cycles
    are functions of the member set, so reordering the spec's member
    tuple never changes any member's routed trace.
    """
    spec = replace(spec, members=tuple(sorted(spec.members, key=lambda m: m.name)))
    traces, picks = draw_traces(
        spec.seed,
        [m.n_nodes for m in spec.members],
        n_days=spec.n_days,
        n_users=spec.n_users,
        demand_mean=spec.demand_mean,
        policy=make_policy(spec, RngStreams(spec.seed)),
    )
    return FleetTrace(
        spec=spec,
        member_traces={m.name: t for m, t in zip(spec.members, traces)},
        demand_levels=traces[0].demand_levels.copy(),
        assignments=[spec.members[i].name for i in picks],
    )
