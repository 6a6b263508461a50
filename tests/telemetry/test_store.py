"""The ring-buffered metric store: windows, eviction, aggregates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.sketch import P2Quantile
from repro.telemetry.store import MetricSeries, MetricStore


class TestMetricSeries:
    def test_append_and_latest(self):
        s = MetricSeries("m", capacity=16)
        s.append(0.0, 1.0)
        s.append(900.0, 2.0)
        assert s.latest() == (900.0, 2.0)
        assert s.size == 2

    def test_window_bounds_are_half_open(self):
        s = MetricSeries("m", capacity=16)
        for i in range(10):
            s.append(i * 100.0, float(i))
        times, values = s.window(200.0, 500.0)
        assert times.tolist() == [200.0, 300.0, 400.0]
        assert values.tolist() == [2.0, 3.0, 4.0]

    def test_unbounded_window_is_chronological(self):
        s = MetricSeries("m", capacity=4)
        for i in range(11):
            s.append(float(i), float(i * i))
        times, values = s.window()
        assert times.tolist() == [7.0, 8.0, 9.0, 10.0]
        assert np.all(np.diff(times) > 0)
        assert values.tolist() == [49.0, 64.0, 81.0, 100.0]

    def test_ring_eviction_drops_oldest(self):
        s = MetricSeries("m", capacity=8)
        for i in range(20):
            s.append(float(i), float(i))
        assert s.size == 8
        assert s.dropped == 12
        times, _ = s.window()
        assert times[0] == 12.0 and times[-1] == 19.0

    def test_aggregates_survive_eviction(self):
        s = MetricSeries("m", capacity=4)
        for i in range(100):
            s.append(float(i), float(i))
        # Raw ring only holds 96..99, but the aggregates saw everything.
        summ = s.summary()
        assert summ.min == 0.0
        assert summ.max == 99.0
        assert summ.count == 100

    def test_ewma_tracks_level_shift(self):
        s = MetricSeries("m", capacity=64, ewma_alpha=0.5)
        for i in range(20):
            s.append(float(i), 1.0)
        assert s.summary().ewma == pytest.approx(1.0)
        for i in range(20, 40):
            s.append(float(i), 5.0)
        assert s.summary().ewma == pytest.approx(5.0, abs=0.01)

    def test_out_of_order_append_rejected(self):
        s = MetricSeries("m")
        s.append(100.0, 1.0)
        with pytest.raises(ValueError):
            s.append(50.0, 2.0)

    def test_summary_fields(self):
        s = MetricSeries("m", capacity=8)
        for i in range(10):
            s.append(float(i), float(i))
        summ = s.summary()
        assert summ.name == "m"
        assert summ.count == 10
        assert summ.dropped == 2
        assert summ.last == 9.0
        assert summ.min == 0.0 and summ.max == 9.0
        assert set(summ.quantiles) == {0.5, 0.9, 0.99}

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            MetricSeries("m", capacity=0)


class TestMetricStore:
    def test_lazy_series_creation(self):
        store = MetricStore()
        assert "x" not in store
        store.append("x", 0.0, 1.0)
        assert "x" in store
        assert store.names() == ["x"]

    def test_window_of_unknown_metric_is_empty(self):
        store = MetricStore()
        times, values = store.window("nope")
        assert len(times) == 0 and len(values) == 0

    def test_summary_of_unknown_metric_raises(self):
        with pytest.raises(KeyError):
            MetricStore().summary("nope")

    def test_store_capacity_propagates(self):
        store = MetricStore(capacity=4)
        for i in range(10):
            store.append("x", float(i), float(i))
        assert store.series("x").size == 4


class EagerSeries:
    """Reference: every aggregate updated on each append, and every
    point kept."""

    def __init__(self, capacity: int, alpha: float) -> None:
        self.capacity = capacity
        self.alpha = alpha
        self.points: list[tuple[float, float]] = []
        self.ewma = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.sketches = {p: P2Quantile(p) for p in (0.5, 0.9, 0.99)}

    def append(self, time: float, value: float) -> None:
        v = float(value)
        self.ewma = v if not self.points else self.alpha * v + (1 - self.alpha) * self.ewma
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        for sketch in self.sketches.values():
            sketch.add(v)
        self.points.append((time, v))

    def retained(self) -> list[tuple[float, float]]:
        return self.points[-self.capacity :]

    def check(self, snap) -> None:
        count = len(self.points)
        kept = self.retained()
        assert snap.count == count
        assert snap.dropped == count - len(kept)
        assert snap.ewma == self.ewma
        assert snap.min == (self.min if count else 0.0)
        assert snap.max == (self.max if count else 0.0)
        assert snap.quantiles == {p: s.value() for p, s in self.sketches.items()}
        assert snap.times.tolist() == [t for t, _ in kept]
        assert snap.values.tolist() == [v for _, v in kept]


VALUES = st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.0, 1.0, 144.0])
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(0, 3), VALUES),
        st.tuples(st.sampled_from(["summary", "snapshot", "window", "latest"]),
                  st.none() | st.integers(0, 60), st.none() | st.integers(0, 60)),
    ),
    max_size=60,
)


class TestLazyAggregates:
    @settings(max_examples=300, deadline=None)
    @given(capacity=st.integers(1, 8), alpha=st.sampled_from([0.1, 0.5, 1.0]), ops=OPS)
    def test_fold_on_read_matches_per_append_reference(self, capacity, alpha, ops):
        """Any interleaving of time-ordered appends and reads gives, field
        for field and bit for bit, what per-append updating gives."""
        lazy = MetricSeries("m", capacity=capacity, ewma_alpha=alpha)
        eager = EagerSeries(capacity, alpha)
        now = 0.0
        for op, a, b in ops:
            if op == "append":
                now += a
                lazy.append(now, b)
                eager.append(now, b)
            elif op == "snapshot":
                eager.check(lazy.snapshot())
            elif op == "summary":
                summ = lazy.summary()
                kept = eager.retained()
                assert summ.name == "m"
                assert summ.last == (kept[-1][1] if kept else 0.0)
                assert (summ.count, summ.dropped, summ.ewma, summ.min, summ.max) == (
                    len(eager.points),
                    len(eager.points) - len(kept),
                    eager.ewma,
                    eager.min if kept else 0.0,
                    eager.max if kept else 0.0,
                )
                assert summ.quantiles == {p: s.value() for p, s in eager.sketches.items()}
            elif op == "window":
                times, values = lazy.window(a, b)
                kept = [(t, v) for t, v in eager.retained()
                        if (a is None or t >= a) and (b is None or t < b)]
                assert times.tolist() == [t for t, _ in kept]
                assert values.tolist() == [v for _, v in kept]
            else:
                kept = eager.retained()
                assert lazy.latest() == (kept[-1] if kept else None)
        eager.check(lazy.snapshot())
        assert lazy.size == len(eager.retained())
