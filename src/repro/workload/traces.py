"""Campaign trace generation: 270 days of submissions.

``generate_trace`` draws the full nine-month submission stream — who
submits what, when, on how many nodes, with which concrete job profile —
from one seed.  Each day's submissions are budgeted in node-seconds
against that day's demand level, so machine load tracks the demand
random walk and Figure 1's shape emerges from queueing rather than
being painted on.

One loop, :func:`draw_traces`, makes every submission stream: the
serial campaign's, each shard's (:func:`generate_shard_trace`) and a
fleet's, routed onto its members (:mod:`repro.fleet.routing`).  So a
single-member fleet draws the single-machine trace by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.power2.config import MachineConfig
from repro.util.rng import RngStreams, spawn_stream
from repro.workload.apps import APPLICATIONS, application
from repro.workload.profile import JobProfile
from repro.workload.users import DemandModel, UserPopulation

if TYPE_CHECKING:
    from repro.fleet.routing import RoutingPolicy

SECONDS_PER_DAY = 86400.0


@dataclass(frozen=True)
class Submission:
    """One job submission in the trace."""

    time: float
    user: int
    app_name: str
    nodes: int
    profile: JobProfile

    @property
    def node_seconds(self) -> float:
        return self.nodes * self.profile.walltime_seconds


@dataclass
class CampaignTrace:
    """The full submission stream plus the models that produced it."""

    seed: int
    n_days: int
    n_nodes: int
    submissions: list[Submission] = field(default_factory=list)
    demand_levels: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def horizon_seconds(self) -> float:
        return self.n_days * SECONDS_PER_DAY

    def total_node_seconds(self) -> float:
        return float(sum(s.node_seconds for s in self.submissions))

    def offered_load(self) -> float:
        """Submitted node-seconds over machine capacity for the horizon."""
        return self.total_node_seconds() / (self.n_nodes * self.horizon_seconds)


def draw_traces(
    seed: int,
    capacities: Sequence[int],
    *,
    n_days: int,
    n_users: int = 60,
    demand_mean: float | None = None,
    day_start: int = 0,
    day_end: int | None = None,
    shard_id: int | None = None,
    policy: RoutingPolicy | None = None,
    machine_config: MachineConfig | None = None,
) -> tuple[list[CampaignTrace], list[int]]:
    """The one submission draw: days ``[day_start, day_end)`` of
    campaign ``seed``, onto machines of the given node counts.

    The user population and the demand walk come from the campaign seed
    over all ``n_days``, so every shard and every fleet member sees the
    same users and demand shape.  The per-submission draws come from the
    campaign's ``workload.submissions`` stream or, with ``shard_id``,
    from that shard's :func:`repro.util.rng.spawn_stream`, so a shard's
    submissions are a pure function of ``(seed, shard_id)``.

    Per day: the demand model gives a target load fraction, and
    submissions are drawn (user → app → concrete job) until that
    fraction of the summed capacity's node-seconds is spent.  Long jobs
    spill their node-seconds into later days naturally when PBS runs
    them.  An app whose smallest node count fits no machine is skipped.
    One machine takes every job; for more, ``policy.choose`` picks one
    the app fits and ``policy.commit`` observes the routed job, and
    neither draws from the submission stream.  A job's node count is
    clamped to its machine's capacity.

    ``machine_config`` is the geometry the profiles' cache/TLB miss
    ratios and cycle counts are evaluated against (``None`` = the stock
    POWER2/590), while every random draw stays machine-independent: the
    *same* jobs run on a different machine, which is what a what-if
    sweep over page geometry means.

    Returns one trace per capacity, on the local clock (day 0 is
    ``day_start``) and sorted by time, plus each submission's machine
    index in draw order.
    """
    day_end = n_days if day_end is None else day_end
    if not 0 <= day_start < day_end <= n_days:
        raise ValueError(f"days [{day_start}, {day_end}) outside a {n_days}-day campaign")
    streams = RngStreams(seed)
    population = UserPopulation(n_users, streams.get("workload.population"))
    if demand_mean is None:
        demand = DemandModel(streams.get("workload.demand"), n_days)
    else:
        demand = DemandModel(streams.get("workload.demand"), n_days, mean=demand_mean)
    if shard_id is not None:
        streams = spawn_stream(seed, shard_id)
    rng = streams.get("workload.submissions")

    fits = {
        name: [i for i, cap in enumerate(capacities) if min(app.node_choices) <= cap]
        for name, app in APPLICATIONS.items()
    }
    total_nodes = sum(capacities)
    subs: list[list[Submission]] = [[] for _ in capacities]
    picks: list[int] = []
    for day in range(day_start, day_end):
        budget = demand.demand(day) * total_nodes * SECONDS_PER_DAY
        spent = 0.0
        # A single enormous job may overshoot the budget; allow it but
        # stop the day there (matches real users, who don't budget).
        while spent < budget:
            user = population.pick_user(rng)
            app = application(user.pick_app(rng))
            eligible = fits[app.name]
            if not eligible:
                continue  # this code cannot run on any of the machines
            target = 0 if policy is None else policy.choose(user.user_id, app, eligible)
            nodes = app.sample_nodes(rng)
            capacity = capacities[target]
            if nodes > capacity:
                nodes = max(c for c in app.node_choices if c <= capacity)
            profile = app.instantiate(rng, nodes=nodes, config=machine_config)
            t = (day - day_start) * SECONDS_PER_DAY + demand.submit_time_in_day(rng)
            sub = Submission(
                time=t,
                user=user.user_id,
                app_name=app.name,
                nodes=profile.nodes,
                profile=profile,
            )
            subs[target].append(sub)
            picks.append(target)
            spent += sub.node_seconds
            if policy is not None:
                policy.commit(target, sub.node_seconds)

    levels = demand.levels[day_start:day_end]
    traces = [
        CampaignTrace(
            seed=seed,
            n_days=day_end - day_start,
            n_nodes=capacity,
            submissions=sorted(machine_subs, key=lambda s: s.time),
            demand_levels=levels.copy(),
        )
        for capacity, machine_subs in zip(capacities, subs)
    ]
    return traces, picks


def generate_trace(
    seed: int = 0,
    *,
    n_days: int = 270,
    n_nodes: int = 144,
    n_users: int = 60,
    demand_mean: float | None = None,
    machine_config: MachineConfig | None = None,
) -> CampaignTrace:
    """The campaign submission trace: :func:`draw_traces` onto one
    machine over every day."""
    (trace,), _ = draw_traces(
        seed, [n_nodes], n_days=n_days, n_users=n_users, demand_mean=demand_mean,
        machine_config=machine_config,
    )
    return trace


def generate_shard_trace(
    seed: int,
    *,
    shard_id: int,
    day_start: int,
    day_end: int,
    n_days: int,
    n_nodes: int = 144,
    n_users: int = 60,
    demand_mean: float | None = None,
    machine_config: MachineConfig | None = None,
) -> CampaignTrace:
    """The submission stream for one day-range shard of a campaign:
    :func:`draw_traces` over the shard's days from the shard's own
    submission stream, so it is unaffected by other shards, worker
    count or scheduling order.  Times are *shard-local* (day 0 is
    ``day_start``); the merge layer offsets them back onto the campaign
    clock.
    """
    (trace,), _ = draw_traces(
        seed, [n_nodes], n_days=n_days, n_users=n_users, demand_mean=demand_mean,
        day_start=day_start, day_end=day_end, shard_id=shard_id,
        machine_config=machine_config,
    )
    return trace


def slice_trace(trace: CampaignTrace, day_start: int, day_end: int) -> CampaignTrace:
    """The day range ``[day_start, day_end)`` of ``trace``, on a local
    clock (day 0 of the slice is ``day_start``).

    The sharded runner uses this to split an externally supplied trace
    (a fleet member's routed submission stream) into day-range shards —
    the counterpart of :func:`generate_shard_trace` for traces that are
    *given* rather than drawn.  Submissions keep their identity; only the
    clock moves.
    """
    if not 0 <= day_start < day_end <= trace.n_days:
        raise ValueError(
            f"slice days [{day_start}, {day_end}) outside trace of {trace.n_days} days"
        )
    from dataclasses import replace

    offset = day_start * SECONDS_PER_DAY
    end = day_end * SECONDS_PER_DAY
    if offset == 0.0:
        subs = [s for s in trace.submissions if s.time < end]
    else:
        subs = [
            replace(s, time=s.time - offset)
            for s in trace.submissions
            if offset <= s.time < end
        ]
    return CampaignTrace(
        seed=trace.seed,
        n_days=day_end - day_start,
        n_nodes=trace.n_nodes,
        submissions=subs,
        demand_levels=trace.demand_levels[day_start:day_end].copy(),
    )


def submissions_by_app(trace: CampaignTrace) -> dict[str, int]:
    """Submission counts per application (diagnostics)."""
    out: dict[str, int] = {name: 0 for name in APPLICATIONS}
    for s in trace.submissions:
        out[s.app_name] += 1
    return out
