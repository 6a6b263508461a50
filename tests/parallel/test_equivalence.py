"""Differential tests: serial vs parallel execution, byte for byte.

The determinism contract of :mod:`repro.parallel`: for a fixed
``(config, shard_days)``, the merged dataset is identical no matter how
many worker processes executed the shards.  These tests run the same
seed serially (1 worker, in-process) and at 2/4/8 workers and assert the
operator reports, the measured counter series, the ``--json`` summary
and the merged trace JSONL match exactly (span ids are already
namespaced identically on both sides — the namespacing depends on the
shard plan, not the workers).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.export import dataset_summary, dataset_to_json
from repro.analysis.opsreport import campaign_ops_digest, day_ops, render_day_report
from repro.core.study import StudyConfig, run_study
from repro.parallel import run_parallel_study
from repro.tracing.export import spans_to_jsonl
from tests.hpm.interval_totals import interval_totals

CONFIG = StudyConfig(seed=3, n_days=6, n_nodes=32, n_users=10)
SHARD_DAYS = 1  # 6 shards: enough to occupy every worker count under test


def _assert_same_samples(a, b) -> None:
    sa, sb = a.collector.samples, b.collector.samples
    assert len(sa) == len(sb)
    for x, y in zip(sa, sb):
        assert x.time == y.time
        assert x.node_ids == y.node_ids
        assert x.missing == y.missing
        assert np.array_equal(x.matrix, y.matrix)


def _assert_same_intervals(a, b) -> None:
    ia, ib = a.collector.intervals(), b.collector.intervals()
    assert len(ia) == len(ib)
    for x, y in zip(ia, ib):
        assert (x.start, x.end, x.n_nodes) == (y.start, y.end, y.n_nodes)
        assert interval_totals(x) == interval_totals(y)


@pytest.fixture(scope="module")
def serial():
    """The 1-worker reference run of the shard plan."""
    return run_parallel_study(CONFIG, workers=1, shard_days=SHARD_DAYS, tracing=True)


@pytest.mark.parametrize("workers", [2, 4, 8])
def test_parallel_matches_serial(serial, workers):
    parallel = run_parallel_study(
        CONFIG, workers=workers, shard_days=SHARD_DAYS, tracing=True
    )

    # ops reports
    assert campaign_ops_digest(parallel) == campaign_ops_digest(serial)
    for day in range(CONFIG.n_days):
        assert render_day_report(day_ops(parallel, day)) == render_day_report(
            day_ops(serial, day)
        )

    # measured counter series
    _assert_same_samples(serial, parallel)
    _assert_same_intervals(serial, parallel)

    # the sp2-study --json artifact
    assert dataset_to_json(parallel) == dataset_to_json(serial)

    # the merged trace (span ids namespaced by shard, not by worker)
    assert spans_to_jsonl(parallel.tracer.spans) == spans_to_jsonl(serial.tracer.spans)

    # accounting identity
    assert [r.job_id for r in parallel.accounting.records] == [
        r.job_id for r in serial.accounting.records
    ]
    assert parallel.events_processed == serial.events_processed


def test_single_shard_plan_is_byte_identical_to_serial_path():
    """``shard_days >= n_days`` degenerates to the exact serial study:
    same trace streams, same samples, same reports."""
    legacy = run_study(CONFIG)
    sharded = run_parallel_study(CONFIG, workers=2, shard_days=CONFIG.n_days)

    _assert_same_samples(legacy, sharded)
    _assert_same_intervals(legacy, sharded)
    assert campaign_ops_digest(legacy) == campaign_ops_digest(sharded)
    assert [r.job_id for r in legacy.accounting.records] == [
        r.job_id for r in sharded.accounting.records
    ]
    # Whole-summary identity modulo the telemetry block (the sharded
    # path rebuilds telemetry by offline replay, which documents a
    # jobs-active undercount near the horizon vs the live service).
    a, b = dataset_summary(legacy), dataset_summary(sharded)
    a.pop("telemetry"), b.pop("telemetry")
    assert a == b


def test_shard_plan_changes_realization_not_shape(serial):
    """Different shard widths are different (equally valid) draws of the
    same campaign: cadence and sample count are preserved even though
    the submissions differ."""
    other = run_parallel_study(CONFIG, workers=1, shard_days=3)
    assert len(other.collector.samples) == len(serial.collector.samples)
    assert [s.time for s in other.collector.samples] == [
        s.time for s in serial.collector.samples
    ]
