"""Armed fault injection on a live (small) campaign."""

import numpy as np
import pytest

from repro.core.study import StudyConfig, WorkloadStudy
from repro.faults.events import COLLECTOR_DROPOUT, NODE_CRASH
from repro.faults.profile import PROFILES, FaultProfile

STORMY = FaultProfile(
    name="stormy",
    node_mtbf_days=2.0,
    node_mttr_hours=4.0,
    switch_mtbf_days=2.0,
    switch_mttr_hours=2.0,
    storm_mtbf_days=2.0,
    collector_dropout_rate=0.05,
)


@pytest.fixture(scope="module")
def faulted():
    """Keeps its samples: the monotonicity test follows each node's
    counters across its outages, which no interval shows."""
    cfg = StudyConfig(seed=5, n_days=4, n_nodes=16, n_users=6, fault_profile=STORMY)
    return WorkloadStudy(cfg, keep_samples=True).run()


class TestConsequences:
    def test_fault_log_populated(self, faulted):
        log = faulted.faults
        assert log is not None
        kinds = log.counts_by_kind()
        assert kinds.get(NODE_CRASH, 0) > 0
        assert kinds.get(COLLECTOR_DROPOUT, 0) > 0
        assert log.horizon_seconds == 4 * 86400.0
        assert log.n_nodes == 16

    def test_crashes_kill_and_requeue_jobs(self, faulted):
        log = faulted.faults
        assert log.jobs_killed > 0
        assert 0 <= log.jobs_requeued <= log.jobs_killed
        assert log.retries_exhausted <= log.jobs_killed

    def test_downtime_costs_availability(self, faulted):
        log = faulted.faults
        assert log.node_down_seconds > 0
        assert 0.0 < log.availability() < 1.0

    def test_dropped_passes_leave_gaps(self, faulted):
        assert faulted.collector.passes_dropped > 0
        gaps = faulted.collector.gap_intervals()
        assert len(gaps) > 0
        # Samples are fewer than the gap-free cadence would produce.
        expected_full = 4 * 96 + 1  # 15-minute passes plus the baseline
        assert len(faulted.collector.samples) == expected_full - faulted.collector.passes_dropped
        assert len(faulted.collector.intervals()) == len(faulted.collector.samples) - 1

    def test_counters_stay_monotone_through_crashes(self, faulted):
        """Halted nodes freeze their counters but never lose them, so the
        collector's delta algebra keeps working across repair."""
        last: dict[int, np.ndarray] = {}
        for sample in faulted.collector.samples:
            for nid, row in zip(sample.node_ids, sample.matrix):
                prev = last.get(nid)
                if prev is not None:
                    assert np.all(row >= prev), f"node {nid} counters went backwards"
                last[nid] = row

    def test_telemetry_saw_the_faults(self, faulted):
        t = faulted.telemetry
        assert t.faults_seen == len(faulted.faults.events)
        assert t.jobs_killed_seen == faulted.faults.jobs_killed
        assert t.collector_gaps_seen == faulted.faults.passes_dropped
        assert any(a.rule == "fault" for a in t.alerts)
        summary = t.summary()
        assert summary["faults_seen"] == t.faults_seen

    def test_analyses_survive_a_faulted_campaign(self, faulted):
        daily = faulted.daily_gflops()
        assert len(daily) == 4
        assert np.all(np.isfinite(daily))


class TestHealthyPathUnchanged:
    def test_null_profile_is_byte_identical_to_no_profile(self):
        base = StudyConfig(seed=11, n_days=2, n_nodes=16, n_users=6)
        null = StudyConfig(
            seed=11, n_days=2, n_nodes=16, n_users=6, fault_profile=PROFILES["none"]
        )
        a = WorkloadStudy(base, keep_samples=True).run()
        b = WorkloadStudy(null, keep_samples=True).run()
        assert b.faults is None
        assert a.collector.intervals() == b.collector.intervals()
        assert len(a.collector.samples) == len(b.collector.samples) > 0
        for x, y in zip(a.collector.samples, b.collector.samples):
            assert x.time == y.time
            assert np.array_equal(x.matrix, y.matrix)
        assert [r.job_id for r in a.accounting.records] == [
            r.job_id for r in b.accounting.records
        ]
        assert a.events_processed == b.events_processed
