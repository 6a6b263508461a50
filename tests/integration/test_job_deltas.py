"""Per-job counter deltas and totals, campaign-wide, on the store and
on the scalar reference.

The epilogue reads a job's nodes once, subtracts the prologue read, and
keeps the difference matrix as the record's ``deltas``; shard merges
pass it through, and the totals are its column sums, reduced on first
use.  Every :class:`~repro.pbs.job.JobRecord` must carry the same
per-node deltas on the counter store as on the per-node reference in
``tests/power2/accrual_reference.py``, and its
:meth:`~repro.pbs.job.JobRecord.summed_deltas` must equal a per-node
sum computed here from scratch — in the same key order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.study import StudyConfig, run_study
from repro.faults.profile import PROFILES
from repro.power2.counters import FLAT_NAMES
from tests.pbs.counter_deltas import counter_deltas
from tests.power2.accrual_reference import reference_accrual, served

SMALL = dict(seed=7, n_days=2, n_nodes=16, n_users=6)


def _records(fault_profile: str | None, shard_days: int | None):
    config = StudyConfig(
        fault_profile=PROFILES[fault_profile] if fault_profile else None,
        **SMALL,
    )
    return run_study(config, shard_days=shard_days).accounting.records


def _summed_from_scratch(record) -> dict[str, int]:
    total: dict[str, int] = {}
    for nid in record.node_ids:
        for name, value in counter_deltas(record)[nid].items():
            total[name] = total.get(name, 0) + value
    return total


@pytest.mark.parametrize("fault_profile", [None, "pathological"])
@pytest.mark.parametrize("shard_days", [None, 1], ids=["serial", "2-shards"])
def test_job_deltas_match_across_backends_and_a_fresh_sum(fault_profile, shard_days):
    with reference_accrual() as built:
        scalar = _records(fault_profile, shard_days)
    assert served(built)
    auto = _records(fault_profile, shard_days)
    assert len(scalar) == len(auto) > 0
    for a, b in zip(scalar, auto):
        assert a == b  # every field, the deltas matrix included
        assert set(counter_deltas(a)) == set(a.node_ids)
        expected = _summed_from_scratch(a)
        for record in (a, b):
            totals = record.summed_deltas()
            assert list(totals.items()) == list(expected.items())
            assert all(type(v) is int for v in totals.values())


def test_cached_totals_are_read_only():
    record = _records(None, None)[0]
    totals = record.summed_deltas()
    with pytest.raises(TypeError):
        totals["user.fxu0"] = 0
    assert record.summed_deltas() is totals  # reduced once, not re-summed


@pytest.mark.parametrize("shard_days", [None, 1], ids=["serial", "2-shards"])
def test_records_keep_only_the_epilogue_matrix(shard_days):
    """One int64 ``(len(node_ids), 44)`` matrix per record, and no
    per-node dict stored beside it."""
    records = _records(None, shard_days)
    assert records
    for record in records:
        record.summed_deltas()
        assert record.deltas.dtype == np.int64
        assert record.deltas.shape == (len(record.node_ids), len(FLAT_NAMES))
        assert not [k for k, v in vars(record).items() if isinstance(v, dict)]
