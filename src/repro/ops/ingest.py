"""Streaming campaigns into the hub through one tap.

A campaign runs in a worker thread (the simulator is synchronous,
CPU-bound Python) with a :class:`BusTap` subscribed to the bus its
telemetry is published on: the live bus of a serial run, the merge's
replay bus of a sharded one (``run_study(bus_hook=...)``), and one bus
per fleet member (``run_fleet(member_hook=...)``).  Every tapped event
is marshalled onto the event loop with ``call_soon_threadsafe`` and
applied by :func:`drain_into_hub`, so hub state is built from exactly
the stream the campaign's own :class:`TelemetryService` consumed.
Taps only *add* subscribers, and the bus delivers in subscription
order, so a tapped campaign's own output is byte-identical to an
untapped one (the integration tests diff the JSON exports).  A sharded
campaign reaches the hub only after its shards finish, when the merge
replays it.
"""

from __future__ import annotations

import asyncio
import functools
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

    def attach(self, bus: EventBus) -> None:
        for topic in TAPPED_TOPICS:
            bus.subscribe(topic, functools.partial(self.emit, topic))


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


async def _ingest(hub: CampaignHub, name: str, run: Callable[[TapFn], Any]) -> Any:
    """Run ``run(tap)`` in a worker thread and feed the hub.

    ``tap`` streams each bus it is handed into the hub as events are
    published.  A failed run completes the campaign with an error flag
    instead of pinning a "running" slot (running campaigns are exempt
    from hub eviction).
    """
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()

    def tap(bus: EventBus, member: str | None = None) -> None:
        BusTap(_loop_emitter(loop, queue, member)).attach(bus)

    runner = asyncio.ensure_future(asyncio.to_thread(run, tap))
    runner.add_done_callback(lambda _: queue.put_nowait(_DONE))
    await drain_into_hub(hub, name, queue)
    try:
        return await runner
    except BaseException:
        hub.complete(name, {"error": True})
        raise


async def ingest_study(
    hub: CampaignHub,
    name: str,
    config: StudyConfig,
    *,
    trace: bool = False,
    shard_days: int | None = None,
    workers: int = 1,
) -> StudyDataset:
    """Run one single-machine campaign into the hub, serial or sharded
    (``shard_days``).  Returns the campaign's own dataset — whose output
    is byte-identical to a run without the hub attached (the tap is
    read-only).
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

    def run(tap: TapFn) -> StudyDataset:
        return run_study(
            config, shard_days=shard_days, workers=workers, tracing=trace, bus_hook=tap
        )

    dataset = await _ingest(hub, name, run)
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
    """Run a fleet campaign into the hub under federated namespaces,
    member by member, one tap per member bus."""
    members = tuple(m.name for m in spec.members)
    hub.register(
        name,
        kind="fleet",
        members=members,
        node_weights={m.name: m.n_nodes for m in spec.members},
        meta={"seed": spec.seed, "n_days": spec.n_days, "routing": spec.routing},
    )

    def run(tap: TapFn) -> FleetDataset:
        def hook(member: MemberSpec, bus: EventBus) -> None:
            tap(bus, member.name)

        return run_fleet(spec, shard_days=shard_days, workers=workers, member_hook=hook)

    fleet = await _ingest(hub, name, run)
    hub.complete(
        name,
        {"jobs": sum(len(m.dataset.accounting) for m in fleet.members)},
    )
    return fleet
