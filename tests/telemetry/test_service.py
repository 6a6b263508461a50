"""The wired service: bus flow, rollups, replay determinism."""

import numpy as np
import pytest

from repro.core.study import WorkloadStudy
from repro.hpm.derived import workload_rates
from repro.telemetry.service import METRIC_CATALOG, TelemetryService
from tests.hpm.interval_totals import interval_totals


class TestLiveWiring:
    def test_campaign_populates_store(self, small_dataset):
        t = small_dataset.telemetry
        assert t is not None
        # One interval per sample pair.
        assert t.intervals_seen == len(small_dataset.collector.intervals())
        assert t.intervals_seen == t.samples_seen - 1
        times, values = t.store.window("gflops.system")
        assert len(times) == min(t.intervals_seen, t.store.capacity)
        assert np.all(values >= 0)

    def test_catalog_metrics_present(self, small_dataset):
        t = small_dataset.telemetry
        missing = set(METRIC_CATALOG) - set(t.store.names())
        # fpu.ratio is conditional on FPU1 activity; everything else must
        # appear in any real campaign.
        assert missing <= {"fpu.ratio"}

    def test_online_series_matches_batch_intervals(self, small_dataset):
        """The streaming sys/user ratio must equal recomputing from the
        batch interval algebra — same data, same numbers."""
        t = small_dataset.telemetry
        _, online = t.store.window("fxu.sys_user_ratio")
        batch = np.array(
            [
                workload_rates(interval_totals(iv), iv.seconds, iv.n_nodes).system_user_fxu_ratio
                for iv in small_dataset.collector.intervals()
                if iv.seconds > 0 and iv.n_nodes > 0
            ]
        )
        tail = batch[-len(online):]
        assert np.array_equal(online, tail)

    def test_rollups_track_accounting(self, small_dataset):
        t = small_dataset.telemetry
        records = small_dataset.accounting.records
        assert len(t.rollups) == len(records)
        assert [r.job_id for r in t.rollups.finished] == [r.job_id for r in records]
        first = t.rollups.finished[0]
        assert first.total_mflops == pytest.approx(first.record.total_mflops)
        assert t.rollups.get(first.job_id) is first

    def test_rollup_queries(self, small_dataset):
        t = small_dataset.telemetry
        top = t.rollups.top_by_mflops(5)
        rates = [r.total_mflops for r in top]
        assert rates == sorted(rates, reverse=True)
        horizon = small_dataset.config.n_days * 86400.0
        spans = t.rollups.finished_between(0.0, horizon)
        assert all(0.0 <= r.record.end_time < horizon for r in spans)

    def test_summary_shape(self, small_dataset):
        s = small_dataset.telemetry.summary()
        for key in (
            "samples_seen",
            "intervals_seen",
            "jobs_finished",
            "alerts_total",
            "alerts_by_rule",
            "alerts_suppressed",
        ):
            assert key in s
        assert s["jobs_finished"] == len(small_dataset.accounting)

    def test_bus_topic_counts(self, small_dataset):
        from repro.telemetry.bus import TOPIC_JOB_END, TOPIC_SAMPLE

        bus = small_dataset.telemetry.bus
        # One sample event per pass: the baseline, then one per interval.
        assert bus.published[TOPIC_SAMPLE] == len(small_dataset.collector.intervals()) + 1
        assert bus.published[TOPIC_JOB_END] == len(small_dataset.accounting)


class TestReplay:
    def test_replay_matches_online(self, small_dataset):
        """Offline replay of the recorded samples + records must produce
        the same alerts and the same metric series as the live run.  The
        samples come from the same campaign run keeping them."""
        t = small_dataset.telemetry
        kept = WorkloadStudy(small_dataset.config, keep_samples=True).run()
        r = TelemetryService.replay(kept.collector.samples, kept.accounting.records)
        assert r.engine.alerts == t.engine.alerts
        assert r.engine.suppressed == t.engine.suppressed
        for name in ("gflops.system", "fxu.sys_user_ratio", "tlb.miss_rate"):
            _, online = t.store.window(name)
            _, replayed = r.store.window(name)
            assert np.array_equal(online, replayed)
        assert [x.job_id for x in r.rollups.finished] == [
            x.job_id for x in t.rollups.finished
        ]
