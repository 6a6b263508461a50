"""Live ingest: taps are invisible, hub state equals replay state."""

import asyncio

import numpy as np
import pytest

from repro.analysis.export import dataset_to_json
from repro.core.study import WorkloadStudy
from repro.ops import CampaignHub, ingest_study
from repro.ops.ingest import TAPPED_TOPICS, BusTap, replay_into_hub
from repro.tracing.tracer import Tracer

from .conftest import tiny_config


@pytest.fixture(scope="module")
def ingested(tiny_dataset):
    """One live ingest of the tiny campaign (hub + its own dataset)."""
    hub = CampaignHub()
    dataset = asyncio.run(ingest_study(hub, "live", tiny_config(), trace=True))
    return hub, dataset


class TestTapInvisibility:
    def test_attached_output_byte_identical_to_detached(self, ingested, tiny_dataset):
        _, attached = ingested
        # tiny_dataset ran the identical config with no hub attached;
        # the ingest tap only *subscribes*, so the exports must match
        # byte for byte (the PR's acceptance contract).
        assert dataset_to_json(attached) == dataset_to_json(tiny_dataset)

    def test_tap_forwards_every_tapped_topic_event(self, tiny_dataset):
        forwarded = []
        study = WorkloadStudy(tiny_config(), tracer=Tracer())
        tap = BusTap(lambda topic, event: forwarded.append(topic))
        tap.attach(study.bus)
        study.run()
        assert tap.forwarded == len(forwarded)
        assert set(forwarded) <= set(TAPPED_TOPICS)
        assert tap.forwarded > 0


class TestHubEqualsReplay:
    """The live-fed hub must equal a hub fed by ``replay_events`` — the
    determinism theorem the shared generator makes true by construction
    (modulo ``jobs.active``, which replay documents as undercounting
    near the horizon: only finished jobs leave records)."""

    DETERMINISTIC_SERIES = (
        "gflops.system",
        "fxu.sys_user_ratio",
        "tlb.miss_rate",
        "nodes.reporting",
    )

    @pytest.fixture(scope="class")
    def replayed(self, tiny_dataset):
        """The same campaign, replayed: the ingest's own dataset keeps no
        samples, and ``tiny_dataset`` is byte-identical to it (see
        :class:`TestTapInvisibility`) and keeps them."""
        hub = CampaignHub()
        hub.register("replayed")
        replay_into_hub(hub, "replayed", tiny_dataset)
        return hub

    def test_metric_series_match(self, ingested, replayed):
        live_hub, _ = ingested
        for name in self.DETERMINISTIC_SERIES:
            live = live_hub.series_snapshot("live", name)
            rep = replayed.series_snapshot("replayed", name)
            assert np.array_equal(live.times, rep.times), name
            assert np.array_equal(live.values, rep.values), name
            assert live.summary() == rep.summary(), name

    def test_alert_logs_match(self, ingested, replayed):
        live_hub, _ = ingested
        live_log, _ = live_hub.alerts_since("live", 0)
        rep_log, _ = replayed.alerts_since("replayed", 0)
        assert [a for _, a in live_log] == [a for _, a in rep_log]
        assert len(live_log) > 0

    def test_finished_rollups_match(self, ingested, replayed):
        live_hub, _ = ingested
        live_ids = [r.job_id for _, r in live_hub.job_rollups("live")]
        rep_ids = [r.job_id for _, r in replayed.job_rollups("replayed")]
        assert live_ids == rep_ids

    def test_job_reports_match(self, ingested, replayed):
        live_hub, dataset = ingested
        job_id = dataset.accounting.records[0].job_id
        live_text = live_hub.job_report("live", job_id)
        rep_text = replayed.job_report("replayed", job_id)
        # Reports name their campaign; normalize before comparing.
        assert live_text.replace("live", "X") == rep_text.replace("replayed", "X")


class TestIngestLifecycle:
    def test_campaign_completes_with_job_count(self, ingested):
        hub, dataset = ingested
        handle = hub.handle("live")
        assert handle.status == "complete"
        assert handle.meta["jobs"] == len(dataset.accounting)

    def test_failed_ingest_completes_with_error(self, monkeypatch):
        """A crashed campaign must not stay "running" — running
        campaigns are exempt from hub eviction, so a leak here would pin
        a slot forever."""
        import repro.ops.ingest as ingest_mod

        def exploding_run_study(config, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(ingest_mod, "run_study", exploding_run_study)
        hub = CampaignHub()
        with pytest.raises(RuntimeError, match="boom"):
            asyncio.run(ingest_study(hub, "doomed", tiny_config()))
        handle = hub.handle("doomed")
        assert handle.status == "complete"
        assert handle.meta["error"] is True
