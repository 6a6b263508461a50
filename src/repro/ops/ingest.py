"""Streaming campaigns into the hub — live taps and offline replay.

Two paths feed a :class:`~repro.ops.hub.CampaignHub`:

* **live** — the campaign runs in a worker thread (the simulator is
  synchronous, CPU-bound Python) with a :class:`BusTap` subscribed to
  its event bus; every tapped event is marshalled onto the event loop
  with ``call_soon_threadsafe`` and applied by :func:`drain_into_hub`.
  Taps only *add* subscribers, and the bus delivers in subscription
  order, so a tapped campaign's own output is byte-identical to an
  untapped one (the integration tests diff the JSON exports);
* **replay** — an already-run dataset that kept its samples (a sharded
  campaign's merged dataset) streams through the canonical
  :func:`repro.telemetry.service.replay_events` ordering, so hub state
  after replay equals :meth:`TelemetryService.replay` state by
  construction.

Sharded campaigns have no live bus, so they run out first and replay
the merged dataset — same end state, no mid-run visibility.  Serial
fleets stream live, one tap per member via ``run_fleet(member_hook=...)``.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable

from repro.core.study import StudyConfig, StudyDataset, run_study
from repro.fleet.runner import FleetDataset, run_fleet
from repro.fleet.spec import FleetSpec, MemberSpec
from repro.ops.hub import CampaignHub
from repro.telemetry.bus import (
    TOPIC_COLLECTOR_GAP,
    TOPIC_FAULT,
    TOPIC_JOB_END,
    TOPIC_JOB_KILLED,
    TOPIC_JOB_START,
    TOPIC_SAMPLE,
    TOPIC_SIM_TRUNCATED,
    TOPIC_SPAN,
    EventBus,
)
from repro.telemetry.service import replay_events

#: Topics forwarded into the hub (everything its services consume).
TAPPED_TOPICS = (
    TOPIC_SAMPLE,
    TOPIC_JOB_START,
    TOPIC_JOB_END,
    TOPIC_JOB_KILLED,
    TOPIC_SPAN,
    TOPIC_FAULT,
    TOPIC_COLLECTOR_GAP,
    TOPIC_SIM_TRUNCATED,
)

#: End-of-stream marker on the ingest queue.
_DONE = object()


class BusTap:
    """Forwards a campaign bus's events to an ``emit(topic, event)``.

    Subscribing is all it does — no filtering, no mutation — so the
    tapped campaign cannot observe it.
    """

    def __init__(self, emit: Callable[[str, Any], None]) -> None:
        self.emit = emit
        self.forwarded = 0

    def attach(self, bus: EventBus) -> None:
        for topic in TAPPED_TOPICS:
            bus.subscribe(topic, self._handler(topic))

    def _handler(self, topic: str):
        def forward(event: Any) -> None:
            self.forwarded += 1
            self.emit(topic, event)

        return forward


def replay_into_hub(
    hub: CampaignHub,
    name: str,
    dataset: StudyDataset,
    *,
    member: str | None = None,
) -> None:
    """Feed one recorded dataset through the canonical replay ordering.

    The dataset must hold its samples: a sharded campaign's merged
    dataset does; a serial one keeps only its intervals, and streams
    live through a :class:`BusTap` instead."""
    if not dataset.collector.samples and dataset.collector.intervals():
        raise ValueError(
            "dataset keeps no samples to replay: a serial campaign keeps only "
            "its intervals (feed it live through a BusTap)"
        )
    spans = dataset.tracer.spans if dataset.tracer is not None else ()
    truncations = (
        dataset.telemetry.truncations if dataset.telemetry is not None else ()
    )
    faults = dataset.faults.events if dataset.faults is not None else ()
    for topic, event in replay_events(
        dataset.collector.samples,
        dataset.accounting.records,
        spans=spans,
        truncations=truncations,
        faults=faults,
    ):
        hub.feed(name, topic, event, member=member)


def replay_fleet_into_hub(
    hub: CampaignHub, name: str, fleet: FleetDataset
) -> None:
    """Replay every member dataset under its federated namespace."""
    for result in fleet.members:
        replay_into_hub(hub, name, result.dataset, member=result.spec.name)


async def drain_into_hub(
    hub: CampaignHub, name: str, queue: asyncio.Queue
) -> None:
    """Apply queued ``(member, topic, event)`` items until ``_DONE``."""
    while True:
        item = await queue.get()
        if item is _DONE:
            return
        member, topic, event = item
        hub.feed(name, topic, event, member=member)


def _loop_emitter(
    loop: asyncio.AbstractEventLoop, queue: asyncio.Queue, member: str | None
) -> Callable[[str, Any], None]:
    def emit(topic: str, event: Any) -> None:
        loop.call_soon_threadsafe(queue.put_nowait, (member, topic, event))

    return emit


#: ``tap(bus, member=None)``: stream one campaign bus into the hub
#: (``member`` names the fleet member the bus belongs to).
TapFn = Callable[..., None]


async def _ingest(
    hub: CampaignHub,
    name: str,
    run: Callable[[TapFn | None], Any],
    *,
    live: bool,
    replay: Callable[[Any], None],
) -> Any:
    """Run ``run(tap)`` in a worker thread and feed the hub.

    Live runs get a ``tap`` that streams each bus they are handed into
    the hub as events happen.  Otherwise ``tap`` is None and ``replay``
    feeds the finished result after the run.  Either way a failed run
    completes the campaign with an error flag instead of pinning a
    "running" slot (running campaigns are exempt from hub eviction).
    """
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()

    def tap(bus: EventBus, member: str | None = None) -> None:
        BusTap(_loop_emitter(loop, queue, member)).attach(bus)

    runner = asyncio.ensure_future(asyncio.to_thread(run, tap if live else None))
    runner.add_done_callback(lambda _: queue.put_nowait(_DONE))
    await drain_into_hub(hub, name, queue)
    try:
        result = await runner
    except BaseException:
        hub.complete(name, {"error": True})
        raise
    if not live:
        replay(result)
    return result


async def ingest_study(
    hub: CampaignHub,
    name: str,
    config: StudyConfig,
    *,
    trace: bool = False,
    shard_days: int | None = None,
    workers: int = 1,
) -> StudyDataset:
    """Run one single-machine campaign into the hub.

    A serial campaign streams live; a sharded one (``shard_days``) runs
    first and replays after the merge — the sharded runner rebuilds
    telemetry at merge time, so there is no live bus to tap mid-flight.
    Returns the campaign's own dataset — whose output is byte-identical
    to a run without the hub attached (the tap is read-only).
    """
    hub.register(
        name,
        kind="single",
        meta={
            "seed": config.seed,
            "n_days": config.n_days,
            "n_nodes": config.n_nodes,
            "traced": trace,
        },
    )

    def run(tap: TapFn | None) -> StudyDataset:
        return run_study(
            config, shard_days=shard_days, workers=workers, tracing=trace, bus_hook=tap
        )

    dataset = await _ingest(
        hub,
        name,
        run,
        live=shard_days is None,
        replay=lambda ds: replay_into_hub(hub, name, ds),
    )
    hub.complete(name, {"jobs": len(dataset.accounting)})
    return dataset


async def ingest_fleet(
    hub: CampaignHub,
    name: str,
    spec: FleetSpec,
    *,
    shard_days: int | None = None,
    workers: int = 1,
) -> FleetDataset:
    """Run a fleet campaign into the hub under federated namespaces.

    Serial fleets stream live (member by member, as they run); sharded
    fleets run first and replay after the merge, as
    :func:`ingest_study` does.
    """
    members = tuple(m.name for m in spec.members)
    hub.register(
        name,
        kind="fleet",
        members=members,
        node_weights={m.name: m.n_nodes for m in spec.members},
        meta={"seed": spec.seed, "n_days": spec.n_days, "routing": spec.routing},
    )

    def run(tap: TapFn | None) -> FleetDataset:
        def hook(member: MemberSpec, bus: EventBus) -> None:
            tap(bus, member.name)

        return run_fleet(
            spec,
            shard_days=shard_days,
            workers=workers,
            member_hook=hook if tap is not None else None,
        )

    fleet = await _ingest(
        hub,
        name,
        run,
        live=shard_days is None,
        replay=lambda f: replay_fleet_into_hub(hub, name, f),
    )
    hub.complete(
        name,
        {"jobs": sum(len(m.dataset.accounting) for m in fleet.members)},
    )
    return fleet
