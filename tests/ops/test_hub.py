"""The campaign hub: lifecycle, bounded residency, query surface."""

import numpy as np
import pytest

from repro.ops.hub import CampaignHub, HubFull, UnknownCampaign, UnknownJob, UnknownMetric
from repro.telemetry.service import METRIC_CATALOG

from .conftest import feed


@pytest.fixture(scope="module")
def loaded_hub(tiny_dataset, tiny_stream):
    hub = CampaignHub()
    hub.register("camp", kind="single", meta={"seed": 3})
    feed(hub, "camp", tiny_stream)
    hub.complete("camp", {"jobs": len(tiny_dataset.accounting)})
    return hub


class TestLifecycle:
    def test_duplicate_registration_rejected(self):
        hub = CampaignHub()
        hub.register("a")
        with pytest.raises(ValueError, match="already registered"):
            hub.register("a")

    def test_fleet_requires_members(self):
        with pytest.raises(ValueError, match="member names"):
            CampaignHub().register("f", kind="fleet")

    def test_unknown_campaign_raises(self):
        with pytest.raises(UnknownCampaign, match="unknown campaign"):
            CampaignHub().handle("ghost")

    def test_oldest_finished_campaign_evicted_at_cap(self):
        hub = CampaignHub(max_campaigns=2)
        hub.register("one")
        hub.complete("one")
        hub.register("two")
        hub.complete("two")
        hub.register("three")  # evicts "one", the oldest finished
        assert "one" not in hub
        assert hub.names() == ["two", "three"]
        assert hub.campaigns_evicted == 1

    def test_running_campaigns_never_evicted(self):
        hub = CampaignHub(max_campaigns=1)
        hub.register("busy")  # still running
        with pytest.raises(HubFull, match="running campaigns"):
            hub.register("next")


class TestQuerySurface:
    def test_catalog_counts(self, loaded_hub, tiny_dataset):
        cat = loaded_hub.catalog()
        assert [c["name"] for c in cat["campaigns"]] == ["camp"]
        entry = cat["campaigns"][0]
        assert entry["status"] == "complete"
        assert entry["jobs_finished"] == len(tiny_dataset.accounting)
        assert entry["events_fed"] > 0
        assert entry["points_dropped"] == 0
        assert entry["meta"]["seed"] == 3

    def test_metric_names_match_store(self, loaded_hub, tiny_dataset):
        assert loaded_hub.metric_names("camp") == tiny_dataset.telemetry.store.names()

    def test_series_snapshot_matches_live_store(self, loaded_hub, tiny_dataset):
        snap = loaded_hub.series_snapshot("camp", "gflops.system")
        _, live = tiny_dataset.telemetry.store.window("gflops.system")
        assert np.array_equal(snap.values, live)

    def test_unknown_metric_raises(self, loaded_hub):
        with pytest.raises(UnknownMetric):
            loaded_hub.series_snapshot("camp", "bogus.metric")

    def test_snapshot_isolated_from_later_feeds(self, tiny_stream):
        hub = CampaignHub()
        hub.register("iso")
        feed(hub, "iso", tiny_stream)
        snap = hub.series_snapshot("iso", "gflops.system")
        before = snap.values.copy()
        # The campaign keeps streaming after the snapshot was taken: one
        # more interval row (every catalog metric but fpu.ratio).
        store = hub.handle("iso").service(None).store
        row = {name: 1e9 for name in METRIC_CATALOG if name != "fpu.ratio"}
        store.append(snap.times[-1] + 900.0, row)
        assert np.array_equal(snap.values, before)
        assert hub.series_snapshot("iso", "gflops.system").count == snap.count + 1

    def test_alert_cursor_pagination(self, loaded_hub):
        all_entries, cursor = loaded_hub.alerts_since("camp", 0)
        assert cursor == len(all_entries)
        again, cursor2 = loaded_hub.alerts_since("camp", cursor)
        assert again == [] and cursor2 == cursor

    def test_alert_listener_sees_fed_alerts(self, tiny_stream):
        hub = CampaignHub()
        hub.register("live")
        seen = []
        hub.add_alert_listener(lambda name, member, alert: seen.append((name, alert)))
        feed(hub, "live", tiny_stream)
        log, _ = hub.alerts_since("live", 0)
        assert [a for _, a in seen] == [a for _, a in log]

    def test_job_report_renders(self, loaded_hub, tiny_dataset):
        job_id = tiny_dataset.accounting.records[0].job_id
        text = loaded_hub.job_report("camp", job_id)
        assert f"job {job_id} performance report" in text
        assert "throughput" in text
        # The tiny campaign is traced, so attribution must be real.
        assert "critical" in text

    def test_job_report_unknown_job(self, loaded_hub):
        with pytest.raises(UnknownJob, match="no finished job"):
            loaded_hub.job_report("camp", 10**9)
