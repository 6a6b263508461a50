"""Periodic tasks (the 15-minute cron sampler's engine)."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.periodic import PeriodicTask


class TestPeriodicTask:
    def test_fires_every_period(self):
        sim = Simulator()
        times = []
        PeriodicTask(sim, 10.0, lambda s: times.append(s.now))
        sim.run(until=35.0)
        assert times == [10.0, 20.0, 30.0]

    def test_custom_start(self):
        sim = Simulator()
        times = []
        PeriodicTask(sim, 10.0, lambda s: times.append(s.now), start=5.0)
        sim.run(until=26.0)
        assert times == [5.0, 15.0, 25.0]

    def test_stop_halts_firing(self):
        sim = Simulator()
        task_box = {}
        times = []

        def cb(s):
            times.append(s.now)
            if len(times) == 2:
                task_box["t"].stop()

        task_box["t"] = PeriodicTask(sim, 1.0, cb)
        sim.run(until=10.0)
        assert times == [1.0, 2.0]

    def test_stop_before_first_fire(self):
        sim = Simulator()
        fired = []
        task = PeriodicTask(sim, 1.0, lambda s: fired.append(s.now))
        task.stop()
        sim.run(until=5.0)
        assert fired == []

    def test_fired_counter(self):
        sim = Simulator()
        task = PeriodicTask(sim, 2.0, lambda s: None)
        sim.run(until=9.0)
        assert task.fired == 4

    def test_nonpositive_period_rejected(self):
        with pytest.raises(ValueError):
            PeriodicTask(Simulator(), 0.0, lambda s: None)

    def test_cadence_matches_cron_boundaries(self):
        """96 samples per simulated day at the paper's 15-min interval."""
        sim = Simulator()
        count = [0]
        PeriodicTask(sim, 900.0, lambda s: count.__setitem__(0, count[0] + 1))
        sim.run(until=86400.0)
        assert count[0] == 96


class TestRearm:
    """A periodic task re-queues the event that just fired
    (``Simulator.rearm``) instead of scheduling a new one."""

    def test_rearmed_event_keeps_fifo_order_at_its_instant(self):
        """Re-armed at t=10 for t=20, the tick fires after an event
        scheduled for t=20 before the re-arm and before one scheduled
        for t=20 after it, as a freshly scheduled event would."""
        sim = Simulator()
        order = []
        sim.schedule_at(5.0, lambda s: s.schedule_at(20.0, lambda s: order.append("earlier")))
        PeriodicTask(sim, 10.0, lambda s: order.append(f"tick@{s.now:g}"))
        sim.schedule_at(15.0, lambda s: s.schedule_at(20.0, lambda s: order.append("later")))
        sim.run(until=20.0)
        assert order == ["tick@10", "earlier", "tick@20", "later"]

    def test_the_fired_event_is_requeued(self):
        sim = Simulator()
        task = PeriodicTask(sim, 10.0, lambda s: None)
        first = task._event
        sim.run(until=25.0)
        assert task.fired == 2 and task._event is first
        assert (first.time, first.cancelled) == (30.0, False)

    def test_stop_cancels_a_rearmed_event(self):
        sim = Simulator()
        fired = []
        task = PeriodicTask(sim, 10.0, lambda s: fired.append(s.now))
        sim.run(until=15.0)
        rearmed = task._event
        task.stop()
        assert rearmed.cancelled
        sim.run(until=50.0)
        assert fired == [10.0] and sim.peek() is None

    def test_rearm_into_the_past_is_refused(self):
        sim = Simulator()
        event = sim.schedule_at(10.0, lambda s: None)
        sim.run()
        with pytest.raises(ValueError, match=r"cannot schedule into the past \(5.0 < 10.0\)"):
            sim.rearm(event, 5.0)
