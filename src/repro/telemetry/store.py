"""Compact in-memory time-series store for the live telemetry feed.

Design constraints, in order:

* **cheap append** — the store sits on the 15-minute sample path of a
  campaign that may be scaled far past the paper's 144 nodes;
* **bounded memory** — raw points live in a fixed-capacity ring per
  metric (columnar ``float64`` time/value arrays), so a nine-month
  campaign cannot grow the operator view without bound;
* **whole-campaign aggregates survive eviction** — EWMA, running
  min/max, and P² quantile sketches (:mod:`repro.telemetry.sketch`)
  never forget, so ``sp2-ops query`` reports campaign-wide statistics
  even after the ring has wrapped.  An append only writes the ring; the
  aggregates fold its points in, oldest first, when read or just before
  an append would overwrite a point not folded yet, so they are bitwise
  what updating them on every append gives.

Windowed queries return chronological ``(times, values)`` arrays over
whatever raw points the ring still holds.

The long-running service layer (:mod:`repro.ops`) adds two demands the
one-shot CLI never had, both served here:

* **snapshot isolation** — a query handler that awaits between reads
  must see one consistent view of a series even while the ingest side
  keeps appending.  :meth:`MetricSeries.snapshot` freezes the ring and
  every aggregate into an immutable :class:`SeriesSnapshot`;
  :meth:`MetricStore.snapshot` does it store-wide.  A read folds, so
  reads and appends share one thread (the hub's loop).
* **bounded series count** — fleet federation multiplies the namespace
  (``fleet.<member>.<metric>``), so a hub store accepts an optional
  ``max_series`` cap and evicts the least-recently-appended series,
  counting what it dropped (``series_evicted``) so served catalogs can
  say so instead of silently forgetting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.telemetry.sketch import QuantileSet

#: Default raw-point retention per metric (≈43 days of 15-minute samples).
DEFAULT_CAPACITY = 4096

#: Default EWMA smoothing factor (≈ a 2.5-hour memory at 15-minute cadence).
DEFAULT_EWMA_ALPHA = 0.1


@dataclass(frozen=True)
class MetricSummary:
    """Campaign-wide aggregate view of one metric."""

    name: str
    count: int
    dropped: int
    last: float
    ewma: float
    min: float
    max: float
    quantiles: dict[float, float]


@dataclass(frozen=True)
class SeriesSnapshot:
    """An immutable point-in-time view of one :class:`MetricSeries`.

    Holds chronological copies of the retained ring plus every streaming
    aggregate, so a reader can mix raw-window math and campaign-wide
    statistics without ever observing a concurrent append in between —
    the isolation contract the asyncio query handlers rely on.
    """

    name: str
    count: int
    dropped: int
    ewma: float
    min: float
    max: float
    quantiles: dict[float, float]
    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.times)

    def latest(self) -> tuple[float, float] | None:
        if not len(self.times):
            return None
        return float(self.times[-1]), float(self.values[-1])

    def window(
        self, t0: float | None = None, t1: float | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Chronological ``(times, values)`` with ``t0 <= t < t1``."""
        times, values = self.times, self.values
        if t0 is not None or t1 is not None:
            mask = np.ones(len(times), dtype=bool)
            if t0 is not None:
                mask &= times >= t0
            if t1 is not None:
                mask &= times < t1
            times, values = times[mask], values[mask]
        return times, values

    def summary(self) -> MetricSummary:
        last = self.latest()
        return MetricSummary(
            name=self.name,
            count=self.count,
            dropped=self.dropped,
            last=last[1] if last else 0.0,
            ewma=self.ewma,
            min=self.min if self.count else 0.0,
            max=self.max if self.count else 0.0,
            quantiles=dict(self.quantiles),
        )


@dataclass(frozen=True)
class StoreSnapshot:
    """Immutable view of a whole store (or a named subset of it)."""

    series: dict[str, SeriesSnapshot]
    #: Series the store evicted over its lifetime (count, not names).
    series_evicted: int = 0

    def names(self) -> list[str]:
        return sorted(self.series)

    def __contains__(self, name: str) -> bool:
        return name in self.series

    def __getitem__(self, name: str) -> SeriesSnapshot:
        return self.series[name]

    @property
    def points_dropped(self) -> int:
        """Raw points evicted by the rings, summed over retained series."""
        return sum(s.dropped for s in self.series.values())


class MetricSeries:
    """One metric's ring of raw points plus its aggregates, folded from
    the ring when :meth:`snapshot` reads them or an append would evict
    a point they have not seen."""

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

    # ------------------------------------------------------------------
    # Append path
    # ------------------------------------------------------------------
    def append(self, time: float, value: float) -> None:
        """O(1) amortized: write one point into the ring."""
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
        """Fold the points not folded yet into the aggregates, oldest first."""
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

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Raw points currently retained."""
        return min(self.count, self.capacity)

    @property
    def dropped(self) -> int:
        """Raw points evicted by the ring."""
        return self.count - self.size

    def window(
        self, t0: float | None = None, t1: float | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Chronological ``(times, values)`` with ``t0 <= t < t1``."""
        return self.snapshot().window(t0, t1)

    def latest(self) -> tuple[float, float] | None:
        if self.count == 0:
            return None
        i = (self._head - 1) % self.capacity
        return float(self._times[i]), float(self._values[i])

    def summary(self) -> MetricSummary:
        return self.snapshot().summary()

    def snapshot(self) -> SeriesSnapshot:
        """Freeze the ring and every aggregate into an immutable view."""
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


class MetricStore:
    """Named metric series, created lazily on first append.

    ``max_series`` bounds how many series the store retains; creating
    one past the cap evicts the least-recently-appended series (and
    counts it in :attr:`series_evicted`).  The default (``None``) keeps
    every series forever — the single-campaign behaviour the golden
    files pin.
    """

    def __init__(
        self,
        *,
        capacity: int = DEFAULT_CAPACITY,
        ewma_alpha: float = DEFAULT_EWMA_ALPHA,
        max_series: int | None = None,
    ) -> None:
        if max_series is not None and max_series <= 0:
            raise ValueError(f"max_series must be positive, got {max_series}")
        self.capacity = capacity
        self.ewma_alpha = ewma_alpha
        self.max_series = max_series
        self._series: dict[str, MetricSeries] = {}
        #: Monotone append clock driving least-recently-appended eviction.
        self._clock = 0
        self._touched: dict[str, int] = {}
        #: Series evicted by the ``max_series`` cap over the lifetime.
        self.series_evicted = 0

    def series(self, name: str) -> MetricSeries:
        s = self._series.get(name)
        if s is None:
            if self.max_series is not None and len(self._series) >= self.max_series:
                coldest = min(self._touched, key=self._touched.__getitem__)
                del self._series[coldest]
                del self._touched[coldest]
                self.series_evicted += 1
            s = MetricSeries(name, capacity=self.capacity, ewma_alpha=self.ewma_alpha)
            self._series[name] = s
            self._touched[name] = self._clock
        return s

    def append(self, name: str, time: float, value: float) -> None:
        self.series(name).append(time, value)
        self._clock += 1
        self._touched[name] = self._clock

    def names(self) -> list[str]:
        return sorted(self._series)

    def snapshot(self, names: list[str] | None = None) -> StoreSnapshot:
        """Immutable view of every series (or just ``names``, skipping
        unknown ones) — one consistent read for handlers that await."""
        picked = self._series if names is None else {
            n: self._series[n] for n in names if n in self._series
        }
        return StoreSnapshot(
            series={n: s.snapshot() for n, s in picked.items()},
            series_evicted=self.series_evicted,
        )

    @property
    def points_dropped(self) -> int:
        """Raw points evicted by the rings, summed over retained series."""
        return sum(s.dropped for s in self._series.values())

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def window(
        self, name: str, t0: float | None = None, t1: float | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
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
