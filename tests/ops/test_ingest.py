"""Ingest: taps are invisible, and a hub fed by one equals the
campaign's own telemetry service, serial or sharded."""

import asyncio
from collections import Counter

import numpy as np
import pytest

from repro.analysis.export import dataset_to_json
from repro.core.study import WorkloadStudy, run_study
from repro.ops import CampaignHub, ingest_study
from repro.ops.ingest import TAPPED_TOPICS, BusTap
from repro.ops.report import job_critical_path, render_performance_report
from repro.tracing.tracer import Tracer

from .conftest import tiny_config


def _ingest(shard_days):
    hub = CampaignHub()
    dataset = asyncio.run(
        ingest_study(hub, "live", tiny_config(), trace=True, shard_days=shard_days)
    )
    return hub, dataset


@pytest.fixture(scope="module")
def ingested(tiny_dataset):
    """One live ingest of the tiny campaign (hub + its own dataset)."""
    return _ingest(None)


@pytest.fixture(scope="module")
def ingested_sharded():
    """The same campaign as one-day shards: the hub taps the merge's
    replay bus."""
    return _ingest(1)


class TestTapInvisibility:
    def test_attached_output_byte_identical_to_detached(self, ingested, tiny_dataset):
        _, attached = ingested
        # tiny_dataset ran the identical config with no hub attached;
        # the ingest tap only *subscribes*, so the exports must match
        # byte for byte (the PR's acceptance contract).
        assert dataset_to_json(attached) == dataset_to_json(tiny_dataset)

    def test_sharded_attached_output_byte_identical_to_detached(self, ingested_sharded):
        _, attached = ingested_sharded
        detached = run_study(tiny_config(), tracing=True, shard_days=1)
        assert dataset_to_json(attached) == dataset_to_json(detached)

    def test_tap_forwards_every_tapped_topic_event(self):
        forwarded = []
        study = WorkloadStudy(tiny_config(), tracer=Tracer())
        BusTap(lambda topic, event: forwarded.append(topic)).attach(study.bus)
        study.run()
        assert forwarded
        assert set(forwarded) <= set(TAPPED_TOPICS)
        published = study.bus.published
        assert Counter(forwarded) == {t: published[t] for t in TAPPED_TOPICS if t in published}


class TestHubEqualsReplay:
    """A hub fed by the ingest tap equals the campaign's own telemetry
    service: the live service of a serial run, the merge's replay
    (``TelemetryService.replay``) of a sharded one.  Both consumed the
    one stream the tap forwarded, so every series matches, ``jobs.active``
    included."""

    @pytest.fixture(scope="class")
    def runs(self, ingested, ingested_sharded):
        return {"serial": ingested, "sharded": ingested_sharded}

    def test_metric_series_match(self, runs):
        for label, (hub, dataset) in runs.items():
            own = dataset.telemetry.store
            assert hub.metric_names("live") == own.names(), label
            for name in own.names():
                fed = hub.series_snapshot("live", name)
                expected = own.series(name).snapshot()
                assert np.array_equal(fed.times, expected.times), (label, name)
                assert np.array_equal(fed.values, expected.values), (label, name)
                assert fed.summary() == expected.summary(), (label, name)

    def test_alert_logs_match(self, runs):
        for label, (hub, dataset) in runs.items():
            log, _ = hub.alerts_since("live", 0)
            assert [a for _, a in log] == dataset.telemetry.alerts, label
            assert len(log) > 0, label

    def test_finished_rollups_match(self, runs):
        for label, (hub, dataset) in runs.items():
            fed = [r.job_id for _, r in hub.job_rollups("live")]
            own = [r.job_id for r in dataset.telemetry.rollups.finished]
            assert fed == own and fed, label

    def test_job_reports_match(self, runs):
        """The hub's page for every job equals the one ``sp2-ops report``
        renders from the campaign's own rollups and recorded spans, and
        every page has the job's span tree, a later shard's jobs too."""
        for label, (hub, dataset) in runs.items():
            rollups = dataset.telemetry.rollups
            for rollup in rollups.finished:
                job_id = rollup.job_id
                path = job_critical_path(dataset.tracer.spans, job_id)
                assert path is not None, (label, job_id)
                expected = render_performance_report(rollup, rollups, campaign="live", path=path)
                assert hub.job_report("live", job_id) == expected, (label, job_id)


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
