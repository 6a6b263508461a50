"""Property-based invariants over arbitrary seeds and shard splits.

Small campaigns (1–3 days, 16 nodes) keep each example fast; hypothesis
explores the seed/shard space.  The invariants are physical, not
calibrational: cumulative counters never run backwards, rates are
non-negative, and the paper's derived ratios stay finite and inside
generous plausibility bounds for *any* seed and *any* shard layout.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.study import StudyConfig
from repro.hpm.derived import workload_rates
from repro.parallel import run_parallel_study
from tests.hpm.interval_totals import interval_totals

SETTINGS = dict(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _run(seed: int, n_days: int, shard_days: int):
    cfg = StudyConfig(seed=seed, n_days=n_days, n_nodes=16, n_users=6)
    return run_parallel_study(cfg, workers=1, shard_days=shard_days)


@settings(**SETTINGS)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_days=st.integers(min_value=1, max_value=3),
    shard_days=st.integers(min_value=1, max_value=3),
)
def test_counters_monotone_and_rates_nonnegative(seed, n_days, shard_days):
    ds = _run(seed, n_days, shard_days)
    samples = ds.collector.samples

    # one sample per cadence point regardless of the shard split
    assert len(samples) == n_days * 96 + 1
    times = [s.time for s in samples]
    assert times == sorted(times) and len(set(times)) == len(times)

    # cumulative counters are monotone across every boundary
    for before, after in zip(samples, samples[1:]):
        if before.node_ids == after.node_ids:
            assert (after.matrix - before.matrix >= 0).all()

    # interval deltas (the merged counter series) are non-negative
    for iv in ds.collector.intervals():
        assert iv.seconds > 0
        assert all(v >= 0 for v in interval_totals(iv).values())

    daily = ds.daily_gflops()
    assert len(daily) == n_days
    assert (daily >= 0).all()
    assert np.isfinite(daily).all()


@settings(**SETTINGS)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    shard_days=st.integers(min_value=1, max_value=2),
)
def test_derived_ratios_finite_and_plausible(seed, shard_days):
    ds = _run(seed, 2, shard_days)

    # job-level ratios (the §7 analyses)
    for rec in ds.accounting.records:
        fm = rec.flops_per_memory_inst
        assert math.isfinite(fm) and 0.0 <= fm <= 10.0
        fma = rec.fma_flop_fraction
        assert math.isfinite(fma) and 0.0 <= fma <= 1.0

    # interval-level FPU balance (paper: ≈1.7 on busy days)
    for iv in ds.collector.intervals():
        if iv.n_nodes <= 0 or iv.seconds <= 0:
            continue
        rates = workload_rates(interval_totals(iv), iv.seconds, iv.n_nodes)
        if rates.mips_fp_unit1 > 0:
            ratio = rates.fpu_ratio
            assert math.isfinite(ratio) and 0.0 < ratio < 20.0
