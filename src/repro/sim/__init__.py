"""Discrete-event simulation kernel.

The SP2 campaign is replayed at *job* granularity: job arrivals, PBS
scheduling decisions, prologue/epilogue counter captures, and the
15-minute RS2HPM cron samples are all events on one simulated clock.
Within a job, counter accrual is computed analytically by the POWER2
model (vectorized over nodes and intervals), so the event queue stays
small even for a 270-day, 144-node campaign.
"""

from repro.sim.engine import Event, Simulator
from repro.sim.periodic import PeriodicTask

__all__ = ["Event", "Simulator", "PeriodicTask"]
