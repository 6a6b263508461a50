"""Event-queue simulator.

A deliberately small kernel: a priority queue of timestamped events with
stable FIFO ordering for ties.  Handlers may schedule further events.
Time is in seconds of simulated wall clock from campaign start.
"""

from __future__ import annotations

import heapq
import itertools
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry.bus import EventBus
    from repro.tracing.tracer import Tracer


@dataclass(eq=False, slots=True)
class Event:
    """One scheduled callback: the handle a caller cancels.

    The queue orders events by (time, sequence) so simultaneous events
    fire in the order they were scheduled — important for
    prologue-before-sample semantics at interval boundaries.
    """

    time: float
    seq: int
    handler: Callable[["Simulator"], None]
    name: str = ""
    cancelled: bool = False

    def cancel(self) -> None:
        """Mark the event dead; it is skipped when popped."""
        self.cancelled = True


class Simulator:
    """Priority-queue discrete-event simulator."""

    def __init__(self, *, label: str = "") -> None:
        #: The simulated clock; only :meth:`step` and :meth:`run` move
        #: it, and never backwards.
        self.now = 0.0
        #: Heap of ``(time, seq, event)``: ``seq`` is unique, so heapq
        #: orders entries by comparing two numbers in C, never an event.
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self.events_processed = 0
        #: Diagnostic name for this simulator instance; sharded campaigns
        #: label each shard's engine so warnings identify their shard.
        self.label = label
        #: Optional span tracer; each dispatched event becomes a span so
        #: spans opened inside handlers nest under it (machine timeline).
        self.tracer: "Tracer | None" = None
        #: Optional telemetry bus for engine-level notices (truncation).
        self.bus: "EventBus | None" = None

    def schedule(
        self,
        delay: float,
        handler: Callable[["Simulator"], None],
        *,
        name: str = "",
    ) -> Event:
        """Schedule ``handler`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, handler, name=name)

    def schedule_at(
        self,
        time: float,
        handler: Callable[["Simulator"], None],
        *,
        name: str = "",
    ) -> Event:
        """Schedule ``handler`` at an absolute simulated time."""
        if time < self.now:
            raise ValueError(f"cannot schedule into the past ({time} < {self.now})")
        seq = next(self._seq)
        ev = Event(time, seq, handler, name)
        heapq.heappush(self._queue, (time, seq, ev))
        return ev

    def rearm(self, event: Event, time: float) -> None:
        """Queue a fired ``event`` again at an absolute time.

        The event keeps its handler and name and takes a fresh sequence
        number, so it orders among same-time events exactly as a new
        :meth:`schedule_at` would; a periodic task re-queues its own
        event this way instead of building one per firing.
        """
        if time < self.now:
            raise ValueError(f"cannot schedule into the past ({time} < {self.now})")
        seq = next(self._seq)
        event.time = time
        event.seq = seq
        heapq.heappush(self._queue, (time, seq, event))

    def every(
        self,
        period: float,
        handler: Callable[["Simulator"], None],
        *,
        start: float | None = None,
        name: str = "periodic",
    ):
        """Periodic hook: run ``handler`` every ``period`` seconds.

        Returns the armed :class:`~repro.sim.periodic.PeriodicTask` (its
        ``stop()`` disarms the hook).  This is the attachment point the
        measurement and telemetry layers use — the 15-minute cron, the
        utilization probe — without each caller importing the periodic
        machinery.
        """
        from repro.sim.periodic import PeriodicTask

        return PeriodicTask(self, period, handler, start=start, name=name)

    def clear(self) -> None:
        """Drop every pending event, cancelled and without its handler.

        Handlers close over the layers that scheduled them, and those
        layers hold the simulator, so a finished run's queue would keep
        the whole campaign in reference cycles until a full garbage
        collection.  Cleared, it is released as soon as its last outside
        reference goes — callers that still hold an event (a periodic
        task, a running job) keep only the inert event.
        """
        for _, _, ev in self._queue:
            ev.cancelled = True
            ev.handler = None
        self._queue.clear()

    def peek(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        return queue[0][0] if queue else None

    def step(self) -> bool:
        """Run the next event.  Returns ``False`` when the queue is empty."""
        queue = self._queue
        while queue:
            ev = heapq.heappop(queue)[2]
            if ev.cancelled:
                continue
            if ev.time < self.now:
                raise ValueError(f"clock cannot run backwards: {ev.time} < {self.now}")
            self.now = ev.time
            self.events_processed += 1
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                from repro.tracing.span import CAT_SIM_EVENT

                with tracer.span(ev.name or "event", CAT_SIM_EVENT, seq=ev.seq):
                    ev.handler(self)
            else:
                ev.handler(self)
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Drain the queue, optionally stopping at a time horizon.

        With ``until`` set, events at exactly ``until`` still fire and the
        clock is left at ``until`` (so periodic samplers scheduled on the
        horizon boundary are included, as the paper's final-day 15-minute
        sample would be).

        Exhausting ``max_events`` with live events still queued (inside
        the horizon) means the campaign was *truncated*, not finished —
        a ``RuntimeWarning`` is issued and, when a telemetry bus is
        attached, a ``sim.truncated`` event is published so downstream
        artifacts can flag the run.
        """
        processed = 0
        truncated_at: float | None = None
        while True:
            nxt = self.peek()
            if nxt is None:
                break
            if until is not None and nxt > until:
                break
            if max_events is not None and processed >= max_events:
                truncated_at = nxt
                break
            self.step()
            processed += 1
        if truncated_at is not None:
            where = f"simulation {self.label!r}" if self.label else "simulation"
            warnings.warn(
                f"{where} truncated by max_events={max_events} at t={self.now:.0f}s "
                f"with events still queued (next at t={truncated_at:.0f}s); "
                "results cover a partial campaign",
                RuntimeWarning,
                stacklevel=2,
            )
            if self.bus is not None:
                from repro.telemetry.bus import TOPIC_SIM_TRUNCATED, SimTruncated

                self.bus.publish(
                    TOPIC_SIM_TRUNCATED,
                    SimTruncated(
                        time=self.now,
                        events_processed=self.events_processed,
                        next_event_time=truncated_at,
                    ),
                )
        if until is not None and until > self.now:
            self.now = until
