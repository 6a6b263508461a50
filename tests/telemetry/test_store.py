"""The ring-buffered metric store: windows, eviction, aggregates, and
rings shared by the names appended together."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.service import METRIC_CATALOG
from repro.telemetry.sketch import P2Quantile
from repro.telemetry.store import MetricStore
from tests.telemetry.store_reference import ReferenceStore


def series_of(points, **store_args):
    """A one-name store fed ``(time, value)`` points; its series."""
    store = MetricStore(**store_args)
    for time, value in points:
        store.append(time, {"m": value})
    return store.series("m")


class TestMetricSeries:
    def test_append_and_latest(self):
        s = series_of([(0.0, 1.0), (900.0, 2.0)], capacity=16)
        assert s.latest() == (900.0, 2.0)
        assert s.size == 2

    def test_window_bounds_are_half_open(self):
        s = series_of([(i * 100.0, float(i)) for i in range(10)], capacity=16)
        times, values = s.window(200.0, 500.0)
        assert times.tolist() == [200.0, 300.0, 400.0]
        assert values.tolist() == [2.0, 3.0, 4.0]

    def test_unbounded_window_is_chronological(self):
        s = series_of([(float(i), float(i * i)) for i in range(11)], capacity=4)
        times, values = s.window()
        assert times.tolist() == [7.0, 8.0, 9.0, 10.0]
        assert np.all(np.diff(times) > 0)
        assert values.tolist() == [49.0, 64.0, 81.0, 100.0]

    def test_ring_eviction_drops_oldest(self):
        s = series_of([(float(i), float(i)) for i in range(20)], capacity=8)
        assert s.size == 8
        assert s.dropped == 12
        times, _ = s.window()
        assert times[0] == 12.0 and times[-1] == 19.0

    def test_aggregates_survive_eviction(self):
        s = series_of([(float(i), float(i)) for i in range(100)], capacity=4)
        # Raw ring only holds 96..99, but the aggregates saw everything.
        summ = s.summary()
        assert summ.min == 0.0
        assert summ.max == 99.0
        assert summ.count == 100

    def test_ewma_tracks_level_shift(self):
        store = MetricStore(capacity=64, ewma_alpha=0.5)
        for i in range(20):
            store.append(float(i), {"m": 1.0})
        assert store.summary("m").ewma == pytest.approx(1.0)
        for i in range(20, 40):
            store.append(float(i), {"m": 5.0})
        assert store.summary("m").ewma == pytest.approx(5.0, abs=0.01)

    def test_out_of_order_append_rejected(self):
        store = MetricStore()
        store.append(100.0, {"m": 1.0})
        with pytest.raises(ValueError, match="time-ordered"):
            store.append(50.0, {"m": 2.0})
        assert store.latest("m") == (100.0, 1.0)

    def test_summary_fields(self):
        s = series_of([(float(i), float(i)) for i in range(10)], capacity=8)
        summ = s.summary()
        assert summ.name == "m"
        assert summ.count == 10
        assert summ.dropped == 2
        assert summ.last == 9.0
        assert summ.min == 0.0 and summ.max == 9.0
        assert set(summ.quantiles) == {0.5, 0.9, 0.99}

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            MetricStore(capacity=0)
        with pytest.raises(ValueError, match="ewma_alpha"):
            MetricStore(ewma_alpha=0.0)


class TestMetricStore:
    def test_lazy_series_creation(self):
        store = MetricStore()
        assert "x" not in store
        store.append(0.0, {"x": 1.0})
        assert "x" in store
        assert store.names() == ["x"]

    def test_window_of_unknown_metric_is_empty(self):
        store = MetricStore()
        times, values = store.window("nope")
        assert len(times) == 0 and len(values) == 0

    def test_summary_of_unknown_metric_raises(self):
        with pytest.raises(KeyError):
            MetricStore().summary("nope")
        with pytest.raises(KeyError):
            MetricStore().series("nope")

    def test_store_capacity_propagates(self):
        store = MetricStore(capacity=4)
        for i in range(10):
            store.append(float(i), {"x": float(i)})
        assert store.series("x").size == 4


class TestGroups:
    """The names of one append share one ring; reads stay per name."""

    def test_one_append_writes_every_name(self):
        store = MetricStore(capacity=4)
        for i in range(6):
            store.append(float(i), {"a": float(i), "b": -float(i)})
        assert store.names() == ["a", "b"]
        assert store.window("a")[1].tolist() == [2.0, 3.0, 4.0, 5.0]
        assert store.window("b")[1].tolist() == [-2.0, -3.0, -4.0, -5.0]
        assert store.latest("b") == (5.0, -5.0)
        assert store.series("a").dropped == store.series("b").dropped == 2
        assert store.points_dropped == 4

    def test_groups_keep_their_own_clocks(self):
        store = MetricStore()
        store.append(10.0, {"a": 1.0, "b": 2.0})
        store.append(5.0, {"c": 3.0})  # another ring: not out of order
        assert store.latest("c") == (5.0, 3.0)
        assert store.summary("a").count == 1 and store.summary("c").count == 1

    @pytest.mark.parametrize(
        "points",
        [{"a": 1.0}, {"b": 1.0, "a": 2.0}, {"a": 1.0, "b": 2.0, "c": 3.0}, {"b": 1.0, "c": 2.0}],
        ids=["subset", "reordered", "superset", "overlap"],
    )
    def test_a_name_stays_in_its_first_group(self, points):
        store = MetricStore()
        store.append(0.0, {"a": 0.0, "b": 0.0})
        with pytest.raises(ValueError, match="same names, in the same order"):
            store.append(1.0, points)
        assert store.names() == ["a", "b"]
        assert store.summary("a").count == 1

    def test_empty_append_rejected(self):
        with pytest.raises(ValueError, match="at least one point"):
            MetricStore().append(0.0, {})


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
        for field and bit for bit, what per-append updating gives, in
        each column of a shared ring."""
        lazy = MetricStore(capacity=capacity, ewma_alpha=alpha)
        eager = {"m": EagerSeries(capacity, alpha), "twin": EagerSeries(capacity, alpha)}
        now = 0.0
        for op, a, b in ops:
            if op == "append":
                now += a
                lazy.append(now, {"m": b, "twin": -b})
                eager["m"].append(now, b)
                eager["twin"].append(now, -b)
                continue
            for name, ref in eager.items():
                kept = ref.retained()
                if name not in lazy:  # nothing appended yet
                    assert not ref.points
                    assert lazy.latest(name) is None
                    assert lazy.window(name)[0].size == 0
                elif op == "snapshot":
                    ref.check(lazy.series(name).snapshot())
                elif op == "summary":
                    summ = lazy.summary(name)
                    assert summ.name == name
                    assert summ.last == (kept[-1][1] if kept else 0.0)
                    assert (summ.count, summ.dropped, summ.ewma, summ.min, summ.max) == (
                        len(ref.points),
                        len(ref.points) - len(kept),
                        ref.ewma,
                        ref.min if kept else 0.0,
                        ref.max if kept else 0.0,
                    )
                    assert summ.quantiles == {p: s.value() for p, s in ref.sketches.items()}
                elif op == "window":
                    times, values = lazy.window(name, a, b)
                    kept = [(t, v) for t, v in kept
                            if (a is None or t >= a) and (b is None or t < b)]
                    assert times.tolist() == [t for t, _ in kept]
                    assert values.tolist() == [v for _, v in kept]
                else:
                    assert lazy.latest(name) == (kept[-1] if kept else None)
        for name, ref in eager.items():
            if ref.points:
                ref.check(lazy.series(name).snapshot())
                assert lazy.series(name).size == len(ref.retained())


# ----------------------------------------------------------------------
# The row store against the per-name reference store
# ----------------------------------------------------------------------
#: The service's layout: the ten metrics every interval carries as one
#: row, and ``fpu.ratio`` on the intervals where FPU1 issued.
SERVICE_LAYOUT = (tuple(n for n in METRIC_CATALOG if n != "fpu.ratio"), ("fpu.ratio",))

LAYOUTS = st.one_of(
    st.just(SERVICE_LAYOUT),
    st.lists(st.integers(1, 4), min_size=1, max_size=3).map(
        lambda sizes: tuple(
            tuple(f"g{g}.m{j}" for j in range(k)) for g, k in enumerate(sizes)
        )
    ),
)
READS = ("snapshot", "window", "latest", "summary", "store")


def assert_snapshots_equal(got, want) -> None:
    for field in ("name", "count", "dropped", "ewma", "min", "max", "quantiles"):
        assert getattr(got, field) == getattr(want, field), field
    for field in ("times", "values"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        layout=LAYOUTS,
        capacity=st.integers(1, 8),
        alpha=st.sampled_from([0.1, 0.5, 1.0]),
    )
    def test_row_store_matches_per_name_store(self, data, layout, capacity, alpha):
        """Random interval streams, appended a group per call to the row
        store and a name per call to the reference, with reads
        interleaved: every read answers the same, bit for bit."""
        rows = MetricStore(capacity=capacity, ewma_alpha=alpha)
        ref = ReferenceStore(capacity=capacity, ewma_alpha=alpha)
        names = [n for group in layout for n in group] + ["unknown"]
        now = 0.0
        for _ in range(data.draw(st.integers(0, 40), label="ops")):
            if data.draw(st.booleans(), label="append"):
                group = data.draw(st.sampled_from(layout), label="group")
                values = data.draw(st.lists(VALUES, min_size=len(group), max_size=len(group)))
                now += data.draw(st.sampled_from([0.0, 1.0, 900.0]), label="dt")
                rows.append(now, dict(zip(group, values)))
                for name, value in zip(group, values):
                    ref.append(name, now, value)
                continue
            read = data.draw(st.sampled_from(READS), label="read")
            name = data.draw(st.sampled_from(names), label="name")
            known = name in ref
            assert (name in rows) == known
            if read == "snapshot" and known:
                assert_snapshots_equal(rows.series(name).snapshot(), ref.series(name).snapshot())
            elif read == "window":
                t0 = data.draw(st.none() | st.sampled_from([0.0, 900.0, 1800.0]), label="t0")
                t1 = data.draw(st.none() | st.sampled_from([900.0, 9000.0]), label="t1")
                got, want = rows.window(name, t0, t1), ref.window(name, t0, t1)
                assert all(np.array_equal(a, b) for a, b in zip(got, want))
            elif read == "latest":
                assert rows.latest(name) == ref.latest(name)
            elif read == "summary" and known:
                assert rows.summary(name) == ref.summary(name)
            elif read == "store":
                assert rows.names() == ref.names()
                assert rows.points_dropped == ref.points_dropped
                for n in ref.names():
                    assert_snapshots_equal(rows.series(n).snapshot(), ref.series(n).snapshot())
        for n in ref.names():
            assert_snapshots_equal(rows.series(n).snapshot(), ref.series(n).snapshot())
