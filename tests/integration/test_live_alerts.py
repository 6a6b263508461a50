"""End-to-end streaming detection: the §6 pathology caught online.

The acceptance bar for the telemetry subsystem: a seeded 30-day campaign
must raise paging alerts on its high-paging days while a clean
configuration (memory large enough that no job oversubscribes) raises
none, and the alert set must be reproducible run-to-run for one seed.
"""

import dataclasses

from repro.analysis.opsreport import campaign_ops_digest, day_ops, render_day_report
from repro.core.study import StudyConfig, WorkloadStudy, run_study
from repro.power2.config import POWER2_590
from repro.workload.traces import SECONDS_PER_DAY


class TestPagingDetection:
    def test_month_campaign_raises_paging_alerts(self, month_dataset):
        t = month_dataset.telemetry
        paging = t.engine.alerts_for("paging")
        assert paging, "a month of NAS load must show the §6 pathology online"
        assert all(a.severity == "critical" for a in paging)

    def test_paging_alerts_land_on_high_paging_days(self, month_dataset):
        """Every alert day must actually show the signature in the batch
        series — the online rule may not invent pathology."""
        daily = month_dataset.daily_rates()
        for alert in month_dataset.telemetry.engine.alerts_for("paging"):
            day = int(alert.time // SECONDS_PER_DAY)
            # Day boundary samples belong to the preceding day's last interval.
            candidates = {min(day, len(daily) - 1), max(day - 1, 0)}
            assert any(daily[d].system_user_fxu_ratio > 0.05 for d in candidates)

    def test_clean_configuration_raises_no_paging_alerts(self):
        """64× node memory: no job oversubscribes, so the paging rule
        must stay silent for the whole campaign."""
        big = dataclasses.replace(
            POWER2_590, memory_bytes=POWER2_590.memory_bytes * 64
        )
        cfg = StudyConfig(
            seed=1, n_days=10, n_nodes=64, n_users=20, machine_config=big
        )
        dataset = WorkloadStudy(cfg).run()
        assert dataset.telemetry.engine.alerts_for("paging") == []


class TestDeterminism:
    def test_same_seed_same_alerts(self):
        cfg = StudyConfig(seed=3, n_days=8, n_nodes=64, n_users=20)
        a, b = run_study(cfg), run_study(cfg)
        assert a.telemetry.engine.alerts == b.telemetry.engine.alerts
        assert a.telemetry.summary() == b.telemetry.summary()


class TestOpsReportMigration:
    def test_reports_byte_identical_with_and_without_telemetry(self, month_dataset):
        """The telemetry-rollup path and the legacy accounting scan must
        render byte-identical daily reports."""
        legacy = dataclasses.replace(month_dataset, telemetry=None)
        for day in range(month_dataset.config.n_days):
            assert render_day_report(day_ops(month_dataset, day)) == render_day_report(
                day_ops(legacy, day)
            )
        assert campaign_ops_digest(month_dataset) == campaign_ops_digest(legacy)


class TestNodeGapAlerts:
    def test_outage_emits_gap_and_recovery(self):
        cfg = StudyConfig(seed=13, n_days=3, n_nodes=16, n_users=8)
        study = WorkloadStudy(cfg)
        victim = study.daemons[2]

        study.sim.schedule_at(1.0 * 86400, lambda sim: victim.mark_down(), name="kill")
        study.sim.schedule_at(2.0 * 86400, lambda sim: victim.mark_up(), name="revive")
        dataset = study.run()

        gaps = dataset.telemetry.engine.alerts_for("node-gap")
        keys = [a.key for a in gaps]
        assert f"node-{victim.node_id}" in keys
        assert f"node-{victim.node_id}-up" in keys
        down = next(a for a in gaps if a.key == f"node-{victim.node_id}")
        up = next(a for a in gaps if a.key == f"node-{victim.node_id}-up")
        assert down.time < up.time

    def test_bus_publishes_node_transitions(self):
        from repro.telemetry.bus import TOPIC_NODE_DOWN, TOPIC_NODE_UP

        cfg = StudyConfig(seed=13, n_days=2, n_nodes=16, n_users=8)
        study = WorkloadStudy(cfg)
        downs: list = []
        ups: list = []
        study.bus.subscribe(TOPIC_NODE_DOWN, downs.append)
        study.bus.subscribe(TOPIC_NODE_UP, ups.append)
        victim = study.daemons[0]
        study.sim.schedule_at(0.5 * 86400, lambda sim: victim.mark_down(), name="kill")
        study.sim.schedule_at(1.0 * 86400, lambda sim: victim.mark_up(), name="revive")
        study.run()
        assert len(downs) == 1 and downs[0].node_id == victim.node_id
        assert len(ups) == 1 and ups[0].up
