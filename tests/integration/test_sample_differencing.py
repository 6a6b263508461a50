"""Each collector sample is differenced exactly once per campaign.

A serial collector differences a sample against the previous one as it
takes it and publishes the interval on the sample's bus event; the
telemetry service and the analysis layer both consume that interval
instead of differencing again.  A sharded campaign's shard workers keep
their samples without differencing them: the merge's telemetry replay
differences each merged pair once, and the merged series keeps the
intervals it publishes.
"""

import pytest

import repro.hpm.collector as collector_mod
import repro.telemetry.service as service_mod
from repro.analysis import paper_comparison, table2, table3, table4
from repro.analysis.export import dataset_to_json
from repro.analysis.opsreport import campaign_ops_digest
from repro.core.study import StudyConfig, WorkloadStudy, run_study
from repro.faults.profile import PROFILES
from repro.hpm.collector import SAMPLE_INTERVAL_SECONDS, SampleSeries
from repro.telemetry.bus import TOPIC_SAMPLE
from repro.telemetry.service import replay_events


@pytest.mark.parametrize(
    "profile, shard_days",
    [
        pytest.param(None, None, id="None"),
        pytest.param("pathological", None, id="pathological"),
        # workers=1 runs the shard collectors in this process, so their
        # calls are counted too.
        pytest.param(None, 1, id="sharded-None"),
        pytest.param("pathological", 1, id="sharded-pathological"),
    ],
)
def test_each_sample_is_differenced_once(monkeypatch, profile, shard_days):
    calls = []
    for module in (collector_mod, service_mod):
        real = module.sample_delta

        def counting(before, after, real=real):
            calls.append(after.time)
            return real(before, after)

        monkeypatch.setattr(module, "sample_delta", counting)
    config = StudyConfig(
        seed=1, n_days=3, n_nodes=144, n_users=60,
        fault_profile=PROFILES[profile] if profile else None,
    )
    events = []
    ds = run_study(
        config,
        shard_days=shard_days,
        workers=1,
        bus_hook=lambda bus: bus.subscribe(TOPIC_SAMPLE, events.append),
    )
    dataset_to_json(ds)
    campaign_ops_digest(ds)
    paper_comparison(ds)
    # Tables 2-4 need a day over 2 Gflops, which the sharded draws of
    # these three days do not have.
    if shard_days is None:
        for table in (table2, table3, table4):
            table(ds).render()

    intervals = ds.collector.intervals()
    assert len(calls) == len(events) - 1 == len(intervals)
    assert calls == [iv.end for iv in intervals]
    # One event per pass taken, each closing the interval that ends at
    # its sample.
    assert [ev.sample.time for ev in events] == [intervals[0].start] + calls
    assert events[0].interval is None
    for i, ev in enumerate(events[1:], start=1):
        assert ev.interval is intervals[i - 1]
    if shard_days is None:
        # The collector holds the last pass.
        assert events[-1].sample is ds.collector.last_sample
        return
    # The replay's intervals are the merged samples' own, gap flags
    # included (this differences them all a second time, uncounted).
    n_calls = len(calls)
    fresh = SampleSeries(list(ds.collector.samples), cadence=SAMPLE_INTERVAL_SECONDS)
    assert fresh.intervals() == intervals
    assert len(calls) == 2 * n_calls
    assert ds.collector.gap_intervals() == fresh.gap_intervals()
    if profile is not None:
        assert ds.collector.gap_intervals()


def test_replayed_intervals_equal_the_live_ones():
    """``replay_events`` over a campaign's kept samples publishes the
    intervals the live collector published, the gap-spanning ones
    flagged ``interpolated`` as live."""
    config = StudyConfig(
        seed=3, n_days=4, n_nodes=32, n_users=8, fault_profile=PROFILES["pathological"]
    )
    study = WorkloadStudy(config, keep_samples=True)
    live = []
    study.bus.subscribe(TOPIC_SAMPLE, lambda ev: live.append(ev.interval))
    ds = study.run()
    replayed = [
        event.interval
        for topic, event in replay_events(ds.collector.samples, ds.accounting.records)
        if topic == TOPIC_SAMPLE
    ]
    assert live[0] is replayed[0] is None
    assert replayed == live
    assert live[1:] == ds.collector.intervals()
    assert any(iv.interpolated for iv in live[1:])
