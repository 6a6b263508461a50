"""The per-name reference metric store: the differential oracle for
:class:`~repro.telemetry.store.MetricStore`.

Every metric here keeps its own ring: a ``float64`` time array, a
``float64`` value array, a head and a count, and its own aggregates,
folded from the ring oldest first when read or just before an append
would overwrite a point they have not seen.  Points arrive one name at
a time (``append(name, time, value)``).  That was the store's own
layout before names appended together came to share one ring; it shares
no code with the store, apart from the result types and the P² sketch.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry.sketch import QuantileSet
from repro.telemetry.store import (
    DEFAULT_CAPACITY,
    DEFAULT_EWMA_ALPHA,
    MetricSummary,
    SeriesSnapshot,
)


class ReferenceSeries:
    """One metric's ring of raw points plus its aggregates."""

    def __init__(
        self,
        name: str,
        *,
        capacity: int = DEFAULT_CAPACITY,
        ewma_alpha: float = DEFAULT_EWMA_ALPHA,
        quantiles: tuple[float, ...] = (0.5, 0.9, 0.99),
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        self.name = name
        self.capacity = capacity
        self._times = np.empty(capacity, dtype=np.float64)
        self._values = np.empty(capacity, dtype=np.float64)
        self._head = 0  # next write slot
        self.count = 0  # total points ever appended
        self._folded = 0  # points the aggregates have seen
        self._alpha = ewma_alpha
        self._ewma: float | None = None
        self._min = float("inf")
        self._max = float("-inf")
        self._sketch = QuantileSet(quantiles)
        self._last_time = float("-inf")

    def append(self, time: float, value: float) -> None:
        if time < self._last_time:
            raise ValueError(
                f"{self.name}: appends must be time-ordered "
                f"({time} < {self._last_time})"
            )
        if self.count - self._folded == self.capacity:
            self._fold()  # the slot about to be overwritten is unfolded
        self._last_time = time
        self._times[self._head] = time
        self._values[self._head] = value
        self._head = (self._head + 1) % self.capacity
        self.count += 1

    def _fold(self) -> None:
        pending = self.count - self._folded
        if not pending:
            return
        new = self._values[np.arange(self._head - pending, self._head)].tolist()
        ewma, alpha = self._ewma, self._alpha
        for v in new:
            ewma = v if ewma is None else alpha * v + (1 - alpha) * ewma
            self._sketch.add(v)
        self._ewma, self._folded = ewma, self.count
        self._min, self._max = min(self._min, *new), max(self._max, *new)

    @property
    def size(self) -> int:
        return min(self.count, self.capacity)

    @property
    def dropped(self) -> int:
        return self.count - self.size

    def window(self, t0: float | None = None, t1: float | None = None):
        return self.snapshot().window(t0, t1)

    def latest(self) -> tuple[float, float] | None:
        if self.count == 0:
            return None
        i = (self._head - 1) % self.capacity
        return float(self._times[i]), float(self._values[i])

    def summary(self) -> MetricSummary:
        return self.snapshot().summary()

    def snapshot(self) -> SeriesSnapshot:
        self._fold()
        order = np.arange(self._head - self.size, self._head)
        return SeriesSnapshot(
            name=self.name,
            count=self.count,
            dropped=self.dropped,
            ewma=self._ewma if self.count else 0.0,
            min=self._min if self.count else 0.0,
            max=self._max if self.count else 0.0,
            quantiles=self._sketch.values(),
            times=self._times[order],
            values=self._values[order],
        )


class ReferenceStore:
    """Named reference series, created on first append."""

    def __init__(
        self, *, capacity: int = DEFAULT_CAPACITY, ewma_alpha: float = DEFAULT_EWMA_ALPHA
    ) -> None:
        self.capacity = capacity
        self.ewma_alpha = ewma_alpha
        self._series: dict[str, ReferenceSeries] = {}

    def series(self, name: str) -> ReferenceSeries:
        s = self._series.get(name)
        if s is None:
            s = ReferenceSeries(name, capacity=self.capacity, ewma_alpha=self.ewma_alpha)
            self._series[name] = s
        return s

    def append(self, name: str, time: float, value: float) -> None:
        self.series(name).append(time, value)

    def names(self) -> list[str]:
        return sorted(self._series)

    @property
    def points_dropped(self) -> int:
        return sum(s.dropped for s in self._series.values())

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def window(self, name: str, t0: float | None = None, t1: float | None = None):
        if name not in self._series:
            return np.empty(0), np.empty(0)
        return self._series[name].window(t0, t1)

    def latest(self, name: str) -> tuple[float, float] | None:
        s = self._series.get(name)
        return s.latest() if s else None

    def summary(self, name: str) -> MetricSummary:
        if name not in self._series:
            raise KeyError(f"unknown metric {name!r}; have {self.names()}")
        return self._series[name].summary()
