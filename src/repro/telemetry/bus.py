"""The telemetry event bus.

The original RS2HPM pipeline wrote files for *later* analysis (§3); the
streaming layer replaces the filesystem hand-off with an in-process
publish/subscribe bus.  Producers are the measurement side — the
15-minute collector cron, the PBS server's prologue/epilogue, and the
collector's node-reachability bookkeeping — and the consumers are the
online side: the metric store, the anomaly engine, and the per-job
rollup table (see :mod:`repro.telemetry.service`).

Delivery is synchronous and in subscription order on the simulation
clock, so a campaign replay produces a deterministic event stream — the
property the alert-reproducibility tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from repro.pbs.job import JobRecord

# ----------------------------------------------------------------------
# Topics
# ----------------------------------------------------------------------

#: One 15-minute collector pass (payload: :class:`SampleTaken`).
TOPIC_SAMPLE = "hpm.sample"
#: A job entered execution — prologue time (payload: :class:`JobStarted`).
TOPIC_JOB_START = "pbs.job_start"
#: A job finished — epilogue time (payload: :class:`JobEnded`).
TOPIC_JOB_END = "pbs.job_end"
#: A node daemon stopped answering (payload: :class:`NodeStateChanged`).
TOPIC_NODE_DOWN = "node.down"
#: A node daemon answered again (payload: :class:`NodeStateChanged`).
TOPIC_NODE_UP = "node.up"
#: A tracing span finished (payload: :class:`SpanFinished`).
TOPIC_SPAN = "trace.span"
#: ``Simulator.run(max_events=...)`` stopped with events still queued
#: (payload: :class:`SimTruncated`).
TOPIC_SIM_TRUNCATED = "sim.truncated"
#: A fault-injection event fired (payload: :class:`FaultInjected`).
TOPIC_FAULT = "fault.injected"
#: A running job was killed by a node failure (payload: :class:`JobKilled`).
TOPIC_JOB_KILLED = "pbs.job_killed"
#: A collector cron pass was lost (payload: :class:`CollectorGap`).
TOPIC_COLLECTOR_GAP = "hpm.gap"

TOPICS = (
    TOPIC_SAMPLE,
    TOPIC_JOB_START,
    TOPIC_JOB_END,
    TOPIC_NODE_DOWN,
    TOPIC_NODE_UP,
    TOPIC_SPAN,
    TOPIC_SIM_TRUNCATED,
    TOPIC_FAULT,
    TOPIC_JOB_KILLED,
    TOPIC_COLLECTOR_GAP,
)


# ----------------------------------------------------------------------
# Event payloads
# ----------------------------------------------------------------------

class SampleTaken(NamedTuple):
    """One collector pass; ``sample`` is the stored ``SystemSample`` and
    ``interval`` the ``IntervalCounts`` it closes (None for the first).
    A named tuple, built positionally: the collector publishes one per
    pass."""

    time: float
    sample: Any  # repro.hpm.collector.SystemSample (kept untyped: no cycle)
    interval: Any  # repro.hpm.collector.IntervalCounts | None


@dataclass(frozen=True)
class JobStarted:
    """Prologue-time job facts."""

    time: float
    job_id: int
    user: int
    app_name: str
    nodes_requested: int
    node_ids: tuple[int, ...]


@dataclass(frozen=True)
class JobEnded:
    """Epilogue-time job facts; ``record`` is the accounting row."""

    time: float
    record: JobRecord


@dataclass(frozen=True)
class NodeStateChanged:
    """A node's daemon became unreachable (or reachable again)."""

    time: float
    node_id: int
    up: bool


@dataclass(frozen=True)
class SpanFinished:
    """A tracing span closed; ``span`` is the ``repro.tracing`` Span
    (kept untyped: tracing must stay importable without telemetry)."""

    time: float
    span: Any


@dataclass(frozen=True)
class SimTruncated:
    """An event-budgeted run stopped short of draining its queue."""

    time: float
    events_processed: int
    #: Time of the next still-queued event (the work left behind).
    next_event_time: float | None


@dataclass(frozen=True)
class FaultInjected:
    """A scheduled fault fired; ``event`` is the
    ``repro.faults.events.FaultEvent`` (kept untyped: no cycle)."""

    time: float
    event: Any


@dataclass(frozen=True)
class JobKilled:
    """A node failure took down a running job."""

    time: float
    job_id: int
    user: int
    app_name: str
    #: The failed node that triggered the kill.
    node_id: int
    #: True when the job went back to the queue (retries left).
    requeued: bool


@dataclass(frozen=True)
class CollectorGap:
    """A collector cron pass was dropped (no sample stored)."""

    time: float
    #: Cumulative dropped passes as of this gap.
    passes_dropped: int = 0


# ----------------------------------------------------------------------
# The bus
# ----------------------------------------------------------------------

@dataclass
class Subscription:
    """Handle returned by :meth:`EventBus.subscribe`."""

    topic: str
    handler: Callable[[Any], None]
    active: bool = True

    def cancel(self) -> None:
        self.active = False


@dataclass
class EventBus:
    """Synchronous topic-keyed publish/subscribe."""

    _subs: dict[str, list[Subscription]] = field(default_factory=dict)
    #: Events published per topic (monitoring the monitor).
    published: dict[str, int] = field(default_factory=dict)

    def subscribe(self, topic: str, handler: Callable[[Any], None]) -> Subscription:
        sub = Subscription(topic=topic, handler=handler)
        self._subs.setdefault(topic, []).append(sub)
        return sub

    def publish(self, topic: str, event: Any) -> int:
        """Deliver ``event`` to every live subscriber; returns how many."""
        self.published[topic] = self.published.get(topic, 0) + 1
        delivered = 0
        for sub in self._subs.get(topic, ()):
            if sub.active:
                sub.handler(event)
                delivered += 1
        return delivered
