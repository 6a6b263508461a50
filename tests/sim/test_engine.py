"""Discrete-event kernel: ordering, cancellation, horizons."""

import pytest

from repro.sim.engine import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda s: fired.append("c"))
        sim.schedule(1.0, lambda s: fired.append("a"))
        sim.schedule(2.0, lambda s: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_fifo(self):
        sim = Simulator()
        fired = []
        for tag in "abc":
            sim.schedule(5.0, lambda s, t=tag: fired.append(t))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda s: seen.append(s.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_handler_can_schedule_more(self):
        sim = Simulator()
        fired = []

        def first(s):
            fired.append("first")
            s.schedule(1.0, lambda s2: fired.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 2.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda s: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda s: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda s: None)

    def test_clock_never_runs_backwards(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(5.0, lambda s: fired.append(s.now))
        sim.run(until=2.0)
        ev.time = 1.0  # behind the clock, past schedule_at's check
        with pytest.raises(ValueError, match=r"^clock cannot run backwards: 1\.0 < 2\.0$"):
            sim.step()
        assert sim.now == 2.0 and fired == []


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(1.0, lambda s: fired.append("x"))
        ev.cancel()
        sim.run()
        assert fired == []

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda s: None)
        sim.schedule(2.0, lambda s: None)
        ev.cancel()
        assert sim.peek() == 2.0


class TestRun:
    def test_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda s: fired.append(1))
        sim.schedule(10.0, lambda s: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0  # clock parked at the horizon

    def test_event_exactly_on_horizon_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda s: fired.append(5))
        sim.run(until=5.0)
        assert fired == [5]

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), lambda s, i=i: fired.append(i))
        with pytest.warns(RuntimeWarning, match="truncated"):
            sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_step_returns_false_on_empty_queue(self):
        assert Simulator().step() is False

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda s: None)
        sim.run()
        assert sim.events_processed == 4

    def test_empty_run_is_noop(self):
        sim = Simulator()
        sim.run()
        assert sim.now == 0.0


class TestClear:
    def test_clear_drops_pending_events(self):
        sim = Simulator()
        fired = []
        held = sim.schedule(5.0, lambda s: fired.append("late"))
        sim.schedule(1.0, lambda s: fired.append("early"))
        sim.run(until=2.0)
        sim.clear()
        assert sim.peek() is None
        assert held.cancelled and held.handler is None
        sim.run()
        assert fired == ["early"]

    def test_cleared_cycles_free_without_the_garbage_collector(self):
        """A handler that closes over an owner of the simulator forms a
        cycle; clearing the queue breaks it."""
        import gc
        import weakref

        class Owner:
            def __init__(self):
                self.sim = Simulator()
                self.sim.schedule(10.0, lambda s: self.tick())

            def tick(self):
                pass

        gc.disable()
        try:
            owner = Owner()
            owner.sim.clear()
            ref = weakref.ref(owner)
            del owner
            assert ref() is None
        finally:
            gc.enable()


class TestTruncation:
    def test_exhaustion_warns_and_reports_next_event(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i + 1), lambda s: None)
        with pytest.warns(RuntimeWarning, match="max_events=2"):
            sim.run(max_events=2)
        assert sim.events_processed == 2

    def test_exhaustion_publishes_bus_event(self):
        from repro.telemetry.bus import TOPIC_SIM_TRUNCATED, EventBus

        sim = Simulator()
        sim.bus = EventBus()
        seen = []
        sim.bus.subscribe(TOPIC_SIM_TRUNCATED, seen.append)
        for i in range(5):
            sim.schedule(float(i + 1), lambda s: None)
        with pytest.warns(RuntimeWarning):
            sim.run(max_events=3)
        (ev,) = seen
        assert ev.events_processed == 3
        assert ev.time == 3.0
        assert ev.next_event_time == 4.0

    def test_draining_exactly_max_events_is_not_truncation(self):
        import warnings as _warnings

        sim = Simulator()
        for i in range(3):
            sim.schedule(float(i + 1), lambda s: None)
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            sim.run(max_events=3)
        assert sim.events_processed == 3

    def test_events_beyond_horizon_are_not_truncation(self):
        import warnings as _warnings

        sim = Simulator()
        sim.schedule(1.0, lambda s: None)
        sim.schedule(10.0, lambda s: None)
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            sim.run(until=5.0, max_events=1)
        assert sim.now == 5.0
