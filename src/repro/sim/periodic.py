"""Periodic task helper — the 15-minute cron sampler is one of these."""

from __future__ import annotations

from typing import Callable

from repro.sim.engine import Event, Simulator


class PeriodicTask:
    """Re-arms itself every ``period`` seconds until stopped.

    The callback receives the simulator; the first firing happens at
    ``start`` (default: one period from scheduling time), matching cron
    semantics where the job first runs at the next interval boundary.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[Simulator], None],
        *,
        start: float | None = None,
        name: str = "periodic",
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.sim = sim
        self.period = period
        self.callback = callback
        self.name = name
        self.fired = 0
        self._stopped = False
        self._event: Event | None = None
        first = sim.now + period if start is None else start
        self._event = sim.schedule_at(first, self._fire, name=name)

    def _fire(self, sim: Simulator) -> None:
        if self._stopped:
            return
        self.fired += 1
        self.callback(sim)
        if not self._stopped:
            # The event that just fired goes back in the queue.
            sim.rearm(self._event, sim.now + self.period)

    def stop(self) -> None:
        """Stop firing; a pending event is cancelled."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
