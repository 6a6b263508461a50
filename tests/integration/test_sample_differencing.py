"""Each collector sample is differenced exactly once per campaign.

The collector differences a sample against the previous one as it takes
it and publishes the interval on the sample's bus event; the telemetry
service and the analysis layer both consume that interval instead of
differencing again.
"""

import pytest

import repro.hpm.collector as collector_mod
import repro.telemetry.service as service_mod
from repro.analysis import table2, table3, table4
from repro.analysis.export import dataset_to_json
from repro.core.study import StudyConfig, run_study
from repro.faults.profile import PROFILES
from repro.telemetry.bus import TOPIC_SAMPLE


@pytest.mark.parametrize("profile", [None, "pathological"])
def test_each_sample_is_differenced_once(monkeypatch, profile):
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
    ds = run_study(config, bus_hook=lambda bus: bus.subscribe(TOPIC_SAMPLE, events.append))
    dataset_to_json(ds)
    for table in (table2, table3, table4):
        table(ds).render()

    intervals = ds.collector.intervals()
    assert len(calls) == len(events) - 1 == len(intervals)
    assert calls == [iv.end for iv in intervals]
    # One event per pass taken, each closing the interval that ends at
    # its sample; the collector holds the last one.
    assert [ev.sample.time for ev in events] == [intervals[0].start] + calls
    assert events[-1].sample is ds.collector.last_sample
    assert events[0].interval is None
    for i, ev in enumerate(events[1:], start=1):
        assert ev.interval is intervals[i - 1]
