"""A dict view of a collector interval, for tests.

:class:`~repro.hpm.collector.IntervalCounts` keeps its counts as one
int64 row (``sums``, :data:`~repro.power2.counters.FLAT_NAMES` order);
nothing in ``repro`` reads them by name.  Tests that name counters read
them through :func:`interval_totals`.
"""

from __future__ import annotations

from repro.power2.counters import FLAT_NAMES


def interval_totals(iv) -> dict[str, int]:
    """``{name: int}`` view of the interval's non-zero :attr:`sums`."""
    return {name: v for name, v in zip(FLAT_NAMES, iv.sums.tolist()) if v}
