"""A dict view of a job's counter deltas, for tests.

:class:`~repro.pbs.job.JobRecord` keeps its per-node counts as one
``(nodes, 44)`` int64 matrix (``deltas``, rows in ``node_ids`` order,
columns in :data:`~repro.power2.counters.FLAT_NAMES` order); nothing in
``repro`` reads them by node and name.  Tests that do read them through
:func:`counter_deltas`.
"""

from __future__ import annotations

from repro.power2.counters import FLAT_NAMES


def counter_deltas(record) -> dict[int, dict[str, int]]:
    """``{node: {name: int}}`` view of the record's :attr:`deltas`,
    built on every call."""
    return {n: dict(zip(FLAT_NAMES, r)) for n, r in zip(record.node_ids, record.deltas.tolist())}
