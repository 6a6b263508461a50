"""Compact in-memory time-series store for the live telemetry feed.

Design constraints, in order:

* **cheap append** — the store sits on the 15-minute sample path of a
  campaign that may be scaled far past the paper's 144 nodes.  One
  :meth:`MetricStore.append` takes one interval's points at once, and
  the names appended together share one ring, so an interval costs one
  row write however many metrics it carries;
* **bounded memory** — raw points live in fixed-capacity rings
  (a ``float64`` time column and a ``(capacity, k)`` ``float64`` value
  block for the ``k`` names of a group), so a nine-month campaign cannot
  grow the operator view without bound;
* **whole-campaign aggregates survive eviction** — EWMA, running
  min/max, and P² quantile sketches (:mod:`repro.telemetry.sketch`)
  never forget, so ``sp2-ops query`` reports campaign-wide statistics
  even after the ring has wrapped.  An append only writes the ring; the
  aggregates fold its points in, column by column and oldest first,
  when read or just before an append would overwrite a point not
  folded yet, so they are bitwise what updating them on every append
  gives.

Reads are per name and do not see the groups: windowed queries return
chronological ``(times, values)`` arrays over whatever raw points the
ring still holds.

The long-running service layer (:mod:`repro.ops`) adds one demand the
one-shot CLI never had: **snapshot isolation** — a query handler that
awaits between reads must see one consistent view of a series even
while the ingest side keeps appending.  :meth:`MetricSeries.snapshot`
freezes one name's column and every aggregate into an immutable
:class:`SeriesSnapshot`.  A read folds, so reads and appends share one
thread (the hub's loop).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.telemetry.sketch import QuantileSet

#: Default raw-point retention per metric (≈43 days of 15-minute samples).
DEFAULT_CAPACITY = 4096

#: Default EWMA smoothing factor (≈ a 2.5-hour memory at 15-minute cadence).
DEFAULT_EWMA_ALPHA = 0.1

#: The streaming quantiles every metric tracks.
QUANTILES = (0.5, 0.9, 0.99)


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
    """An immutable point-in-time view of one metric.

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


class _Ring:
    """The ring shared by one group of names, the names of one append:
    a time column, a ``(capacity, k)`` value block with one column per
    name, and each column's aggregates, folded from the ring when read
    or when an append would evict a point they have not seen."""

    __slots__ = (
        "names", "capacity", "times", "values", "head", "count", "folded",
        "last_time", "alpha", "ewma", "min", "max", "sketches",
    )

    def __init__(self, names: tuple[str, ...], capacity: int, alpha: float) -> None:
        k = len(names)
        self.names = names
        self.capacity = capacity
        self.times = np.empty(capacity, dtype=np.float64)
        self.values = np.empty((capacity, k), dtype=np.float64)
        self.head = 0  # next write slot
        self.count = 0  # rows ever written
        self.folded = 0  # rows the aggregates have seen
        self.last_time = float("-inf")
        self.alpha = alpha
        self.ewma: list[float | None] = [None] * k
        self.min = [float("inf")] * k
        self.max = [float("-inf")] * k
        self.sketches = [QuantileSet(QUANTILES) for _ in names]

    def write(self, time: float, row: tuple) -> None:
        """O(1) amortized: write one row into the ring."""
        if time < self.last_time:
            raise ValueError(
                f"{', '.join(self.names)}: appends must be time-ordered "
                f"({time} < {self.last_time})"
            )
        if self.count - self.folded == self.capacity:
            self.fold()  # the row about to be overwritten is unfolded
        head = self.head
        self.values[head] = row
        self.times[head] = self.last_time = time
        self.head = (head + 1) % self.capacity
        self.count += 1

    def fold(self) -> None:
        """Fold the rows not folded yet into every column's aggregates,
        oldest first."""
        pending = self.count - self.folded
        if not pending:
            return
        block = self.values[np.arange(self.head - pending, self.head)]
        alpha = self.alpha
        for j, new in enumerate(block.T.tolist()):
            ewma, sketch = self.ewma[j], self.sketches[j]
            for v in new:
                ewma = v if ewma is None else alpha * v + (1 - alpha) * ewma
                sketch.add(v)
            self.ewma[j] = ewma
            self.min[j], self.max[j] = min(self.min[j], *new), max(self.max[j], *new)
        self.folded = self.count


class MetricSeries:
    """One metric: its name's column of the ring it shares, read as a
    series of its own."""

    __slots__ = ("name", "_ring", "_column")

    def __init__(self, name: str, ring: _Ring, column: int) -> None:
        self.name = name
        self._ring = ring
        self._column = column

    @property
    def size(self) -> int:
        """Raw points currently retained."""
        return min(self._ring.count, self._ring.capacity)

    @property
    def dropped(self) -> int:
        """Raw points evicted by the ring."""
        return self._ring.count - self.size

    def window(
        self, t0: float | None = None, t1: float | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Chronological ``(times, values)`` with ``t0 <= t < t1``."""
        return self.snapshot().window(t0, t1)

    def latest(self) -> tuple[float, float] | None:
        ring = self._ring
        if ring.count == 0:
            return None
        i = (ring.head - 1) % ring.capacity
        return float(ring.times[i]), float(ring.values[i, self._column])

    def summary(self) -> MetricSummary:
        return self.snapshot().summary()

    def snapshot(self) -> SeriesSnapshot:
        """Freeze the column and its aggregates into an immutable view."""
        ring, j = self._ring, self._column
        ring.fold()
        count = ring.count
        order = np.arange(ring.head - self.size, ring.head)
        return SeriesSnapshot(
            name=self.name,
            count=count,
            dropped=self.dropped,
            ewma=ring.ewma[j] if count else 0.0,
            min=ring.min[j] if count else 0.0,
            max=ring.max[j] if count else 0.0,
            quantiles=ring.sketches[j].values(),
            times=ring.times[order],
            values=ring.values[order, j],
        )


class MetricStore:
    """Named metric series, created on their first append.

    The names of one :meth:`append` form a group that shares one ring;
    a name belongs to its first append's group for the store's life, so
    every later append that carries it must carry exactly that group's
    names, in the same order.
    """

    def __init__(
        self, *, capacity: int = DEFAULT_CAPACITY, ewma_alpha: float = DEFAULT_EWMA_ALPHA
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        self.capacity = capacity
        self.ewma_alpha = ewma_alpha
        #: Group (the names of one append, in order) → its ring.
        self._rings: dict[tuple[str, ...], _Ring] = {}
        self._series: dict[str, MetricSeries] = {}

    def append(self, time: float, points: Mapping[str, float]) -> None:
        """Write one instant's ``{name: value}`` points as one row of
        the ring their names share."""
        names = tuple(points)
        ring = self._rings.get(names)
        if ring is None:
            ring = self._new_ring(names)
        ring.write(time, tuple(points.values()))

    def _new_ring(self, names: tuple[str, ...]) -> _Ring:
        if not names:
            raise ValueError("an append needs at least one point")
        for name in names:
            if name in self._series:
                raise ValueError(
                    f"{name!r} is appended with {list(self._series[name]._ring.names)}; "
                    "a name's points always come with the same names, in the same order"
                )
        ring = self._rings[names] = _Ring(names, self.capacity, self.ewma_alpha)
        for column, name in enumerate(names):
            self._series[name] = MetricSeries(name, ring, column)
        return ring

    def series(self, name: str) -> MetricSeries:
        if name not in self._series:
            raise KeyError(f"unknown metric {name!r}; have {self.names()}")
        return self._series[name]

    def names(self) -> list[str]:
        return sorted(self._series)

    @property
    def points_dropped(self) -> int:
        """Raw points evicted by the rings, summed over every series."""
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
        return self.series(name).summary()
