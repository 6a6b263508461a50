"""Keeping counter samples never changes a campaign's output.

A serial campaign keeps its collector's intervals and holds only the
latest sample; a shard worker keeps every sample for the merge.  Both
difference each pass the same way, so a campaign run either way yields
the same intervals, the same telemetry and the same ``--json`` artifact.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.export import dataset_to_json
from repro.core.study import StudyConfig, WorkloadStudy, run_study
from repro.faults.profile import PROFILES
from repro.parallel.plan import Shard
from repro.parallel.worker import run_shard

CONFIGS = {
    "healthy": StudyConfig(seed=3, n_days=3, n_nodes=32, n_users=8),
    "pathological": StudyConfig(
        seed=7, n_days=3, n_nodes=32, n_users=8, fault_profile=PROFILES["pathological"]
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_retention_never_changes_output(name):
    config = CONFIGS[name]
    lean = WorkloadStudy(config).run()
    kept = WorkloadStudy(config, keep_samples=True).run()

    # A serial campaign keeps no samples; one that asks keeps every pass.
    assert lean.collector.samples == []
    assert len(kept.collector.samples) == len(kept.collector.intervals()) + 1
    assert kept.collector.samples[-1] is kept.collector.last_sample

    # The same intervals, field by field.
    ia, ib = lean.collector.intervals(), kept.collector.intervals()
    assert len(ia) == len(ib) == config.n_days * 96 - lean.collector.passes_dropped
    for x, y in zip(ia, ib):
        assert (x.start, x.end, x.n_nodes, x.interpolated) == (
            y.start, y.end, y.n_nodes, y.interpolated
        )
        assert x.sums.dtype == y.sums.dtype == np.int64
        assert np.array_equal(x.sums, y.sums)
    if config.fault_profile is not None:
        # The pathological run drops passes: gap intervals are compared too.
        assert lean.collector.gap_intervals()

    # The same telemetry.
    ta, tb = lean.telemetry, kept.telemetry
    assert ta.summary() == tb.summary()
    assert ta.store.names() == tb.store.names()
    for metric in ta.store.names():
        assert ta.store.summary(metric) == tb.store.summary(metric), metric

    # The same --json artifact, and it matches run_study's serial path.
    assert dataset_to_json(lean) == dataset_to_json(kept)
    assert dataset_to_json(run_study(config)) == dataset_to_json(lean)

    # A shard worker keeps every pass of its day, baseline included.
    shard = run_shard(config, Shard(index=1, day_start=1, day_end=2), 3)
    assert shard.samples[0].time == 0.0
    assert 0 < len(shard.samples) <= 96 + 1
