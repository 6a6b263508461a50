"""Every campaign is tapped the same way.

``run_study(bus_hook=)`` and ``run_fleet(member_hook=)`` hand the hook
the bus the campaign's own telemetry is published on — the live bus of
a serial run, the merge's replay bus of a sharded one — once, before
the first event.  A service fed from the tapped stream then equals the
campaign's own.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.study import StudyConfig, run_study
from repro.faults.profile import PROFILES
from repro.fleet import FleetSpec, MemberSpec, run_fleet
from repro.ops.ingest import TAPPED_TOPICS, BusTap
from repro.telemetry.service import TelemetryService

#: Seed 3 under the pathological profile kills a job and drops two
#: collector passes inside 2 days.
CONFIGS = {
    "healthy": StudyConfig(seed=3, n_days=2, n_nodes=16, n_users=6),
    "pathological": StudyConfig(
        seed=3, n_days=2, n_nodes=16, n_users=6, fault_profile=PROFILES["pathological"]
    ),
}


class Recorder:
    """A bus hook that records each call and the stream it taps."""

    def __init__(self) -> None:
        self.buses = []
        #: Events already published on each bus when the hook got it.
        self.published_before: list[int] = []
        self.stream: list[tuple[str, object]] = []

    def __call__(self, bus) -> None:
        self.buses.append(bus)
        self.published_before.append(sum(bus.published.values()))
        BusTap(lambda topic, event: self.stream.append((topic, event))).attach(bus)

    def assert_tapped_once_before_any_event(self) -> None:
        assert len(self.buses) == 1 and self.published_before == [0]
        published = self.buses[0].published
        assert len(self.stream) == sum(published.get(t, 0) for t in TAPPED_TOPICS) > 0


def fed_service(stream) -> TelemetryService:
    service = TelemetryService()
    for topic, event in stream:
        service.bus.publish(topic, event)
    return service


def assert_same_telemetry(fed: TelemetryService, dataset, *, sharded: bool) -> None:
    own = dataset.telemetry
    assert fed.store.names() == own.store.names()
    for name in own.store.names():
        a, b = fed.store.series(name).snapshot(), own.store.series(name).snapshot()
        assert np.array_equal(a.times, b.times) and np.array_equal(a.values, b.values), name
        assert a.summary() == b.summary(), name
    assert fed.alerts == own.alerts
    assert [(r.job_id, r.total_mflops) for r in fed.rollups.finished] == [
        (r.job_id, r.total_mflops) for r in own.rollups.finished
    ]
    expected = fed.summary()
    if sharded and dataset.faults is not None:
        # The replay stream carries fault events but no kill or gap
        # notices; the merge copies those two counts from the fault log.
        assert expected["jobs_killed_seen"] == expected["collector_gaps_seen"] == 0
        expected["jobs_killed_seen"] = dataset.faults.jobs_killed
        expected["collector_gaps_seen"] = dataset.faults.passes_dropped
    assert expected == own.summary()


@pytest.mark.parametrize("shard_days", [None, 1], ids=["serial", "sharded"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_a_service_fed_from_the_tap_equals_the_campaigns_own(name, shard_days):
    hook = Recorder()
    dataset = run_study(CONFIGS[name], shard_days=shard_days, tracing=True, bus_hook=hook)
    hook.assert_tapped_once_before_any_event()
    assert_same_telemetry(fed_service(hook.stream), dataset, sharded=shard_days is not None)


def test_sharded_fleet_members_are_tapped_like_single_campaigns():
    spec = FleetSpec(
        members=(
            MemberSpec(name="a", n_nodes=16),
            MemberSpec(name="b", n_nodes=16, fault_profile="pathological"),
        ),
        seed=5,
        n_days=2,
        n_users=6,
    )
    hooks: dict[str, Recorder] = {}

    def member_hook(member, bus):
        hooks.setdefault(member.name, Recorder())(bus)

    fleet = run_fleet(spec, shard_days=1, member_hook=member_hook)
    assert list(hooks) == ["a", "b"]
    for result in fleet.members:
        hook = hooks[result.spec.name]
        hook.assert_tapped_once_before_any_event()
        assert_same_telemetry(fed_service(hook.stream), result.dataset, sharded=True)
