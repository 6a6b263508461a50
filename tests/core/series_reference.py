"""The per-interval reference loops: the differential oracle for
:class:`~repro.core.study.StudyDataset`'s interval series.

The dataset reduces its collector intervals as arrays, over one
columnar table of their int64 rows.  These functions compute the same
three series the way it once did, one interval at a time: each
interval's ``totals`` mapping goes through
:func:`~repro.hpm.derived.workload_rates`, days are grouped in a dict
and summed with Python ints.  They share no reduction code with the
dataset, so equal output means the array path is right, bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.study import StudyDataset
from repro.hpm.derived import DerivedRates, workload_rates
from repro.power2.node import DMA_TRANSFER_BYTES
from repro.workload.traces import SECONDS_PER_DAY
from tests.hpm.interval_totals import interval_totals


def daily_rates(ds: StudyDataset) -> list[DerivedRates]:
    """Per-day rates: intervals grouped by the day their start falls in,
    stopping at the first day with none."""
    out: list[DerivedRates] = []
    grouped: dict[int, list] = {}
    for iv in ds.collector.intervals():
        grouped.setdefault(int(iv.start // SECONDS_PER_DAY), []).append(iv)
    for d in range(ds.config.n_days):
        chunk = grouped.get(d)
        if not chunk:
            break
        totals: dict[str, int] = {}
        for iv in chunk:
            for k, v in interval_totals(iv).items():
                totals[k] = totals.get(k, 0) + v
        seconds = chunk[-1].end - chunk[0].start
        out.append(workload_rates(totals, seconds, ds.config.n_nodes))
    return out


def interval_gflops(ds: StudyDataset) -> tuple[np.ndarray, np.ndarray]:
    """(interval ends, system Gflops), one interval at a time."""
    ivs = ds.collector.intervals()
    times = np.array([iv.end for iv in ivs])
    rates = np.empty(len(ivs))
    for i, iv in enumerate(ivs):
        r = workload_rates(interval_totals(iv), iv.seconds, ds.config.n_nodes)
        rates[i] = r.gflops_system()
    return times, rates


def interval_dma_bytes_per_node(ds: StudyDataset) -> tuple[np.ndarray, np.ndarray]:
    """(interval ends, per-node DMA bytes/s), one interval at a time."""
    ivs = ds.collector.intervals()
    times = np.array([iv.end for iv in ivs])
    rates = np.empty(len(ivs))
    for i, iv in enumerate(ivs):
        totals = interval_totals(iv)
        rates[i] = (
            (totals.get("user.dma_read", 0) + totals.get("user.dma_write", 0))
            * DMA_TRANSFER_BYTES
            / (iv.seconds * max(iv.n_nodes, 1))
        )
    return times, rates
