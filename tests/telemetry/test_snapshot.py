"""Snapshot isolation: frozen views of one series."""

import numpy as np

from repro.telemetry.store import MetricStore


class TestSeriesSnapshot:
    def test_snapshot_frozen_against_later_appends(self):
        store = MetricStore()
        for i in range(5):
            store.append(float(i), {"m": float(i)})
        snap = store.series("m").snapshot()
        store.append(5.0, {"m": 99.0})
        assert snap.count == 5
        assert snap.latest() == (4.0, 4.0)
        assert np.array_equal(snap.values, [0, 1, 2, 3, 4])

    def test_snapshot_summary_matches_live_summary(self):
        store = MetricStore()
        for i in range(20):
            store.append(float(i), {"m": float(i % 7)})
        assert store.series("m").snapshot().summary() == store.summary("m")

    def test_snapshot_window_halfopen(self):
        store = MetricStore()
        for i in range(10):
            store.append(float(i * 900), {"m": float(i)})
        _, values = store.series("m").snapshot().window(900.0, 2700.0)
        assert np.array_equal(values, [1.0, 2.0])

    def test_snapshot_carries_ring_eviction_count(self):
        store = MetricStore(capacity=3)
        for i in range(8):
            store.append(float(i), {"m": float(i)})
        snap = store.series("m").snapshot()
        assert snap.dropped == 5
        assert snap.count == 8
        assert np.array_equal(snap.values, [5, 6, 7])


class TestBoundedSeries:
    def test_unbounded_by_default(self):
        store = MetricStore()
        for i in range(50):
            store.append(0.0, {f"m{i}": 0.0})
        assert len(store.names()) == 50
