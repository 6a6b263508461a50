"""Campaigns whose caller reads no telemetry run without it.

A repeat seed keeps only its metric dict and a shard worker ships only
measured data (the merge replays the telemetry), so both run with
``telemetry=False``: no event bus, no telemetry service, no replay.
Every caller that reads telemetry keeps it, and the measured data is
the same either way.
"""

from __future__ import annotations

import pytest

from repro.core.study import StudyConfig, run_study
from repro.faults.profile import PROFILES
from repro.fleet import FleetSpec, MemberSpec, fleet_summary, run_fleet
from repro.parallel.plan import Shard
from repro.parallel.worker import run_shard
from repro.stats.campaign import ConfigRepeatSpec
from repro.stats.metrics import collect_metrics
from repro.sweep import SweepSpec, execute_cell, plan_sweep
from repro.telemetry.bus import EventBus
from repro.telemetry.service import TelemetryService

TINY = StudyConfig(seed=3, n_days=2, n_nodes=16, n_users=6)
CONFIGS = {
    "healthy": TINY,
    "pathological": StudyConfig(
        seed=7, n_days=2, n_nodes=16, n_users=6, fault_profile=PROFILES["pathological"]
    ),
}


@pytest.fixture
def built(monkeypatch) -> dict[str, int]:
    """How many event buses and telemetry services the test builds, and
    how many replays it runs: a spy on both constructors, however a
    module imported the class, and on ``TelemetryService.replay``."""
    counts = {"EventBus": 0, "TelemetryService": 0, "replay": 0}

    def counting(name, original):
        def spy(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return spy

    for cls in (EventBus, TelemetryService):
        monkeypatch.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
    monkeypatch.setattr(
        TelemetryService,
        "replay",
        classmethod(counting("replay", TelemetryService.replay.__func__)),
    )
    return counts


class TestTheSpySees:
    def test_a_serial_campaign_builds_its_live_service(self, built):
        assert run_study(TINY).telemetry is not None
        assert built == {"EventBus": 1, "TelemetryService": 1, "replay": 0}

    def test_a_sharded_campaign_replays_once(self, built):
        dataset = run_study(TINY, shard_days=1)
        assert dataset.telemetry is not None and dataset.telemetry.intervals_seen > 0
        # The replay's service and its bus; the two workers build none.
        assert built == {"EventBus": 1, "TelemetryService": 1, "replay": 1}


class TestRepeatSeed:
    @pytest.mark.parametrize("shard_days", [None, 1], ids=["serial", "sharded"])
    def test_builds_no_bus_and_no_service(self, built, shard_days):
        metrics = ConfigRepeatSpec(config=TINY, shard_days=shard_days).run_one(4)
        assert metrics["campaign.jobs_accounted"] > 0
        assert built == {"EventBus": 0, "TelemetryService": 0, "replay": 0}

    @pytest.mark.parametrize("shard_days", [None, 1], ids=["serial", "sharded"])
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_metrics_equal_a_run_with_telemetry(self, name, shard_days):
        config = CONFIGS[name]
        spec = ConfigRepeatSpec(config=config, shard_days=shard_days)
        with_telemetry = run_study(config, shard_days=shard_days)
        assert with_telemetry.telemetry is not None
        assert spec.run_one(config.seed) == collect_metrics(with_telemetry)


def test_shard_worker_builds_no_bus_and_no_service(built):
    config = CONFIGS["pathological"]
    result = run_shard(config, Shard(index=1, day_start=1, day_end=2), 2, tracing=True)
    assert result.samples and result.records and result.spans and result.faults.events
    assert built == {"EventBus": 0, "TelemetryService": 0, "replay": 0}


@pytest.mark.parametrize("shard_days", [None, 1], ids=["serial", "sharded"])
def test_telemetry_off_leaves_the_dataset_without_it(shard_days):
    dataset = run_study(TINY, shard_days=shard_days, telemetry=False)
    assert dataset.telemetry is None
    assert len(dataset.accounting) > 0


@pytest.mark.parametrize("shard_days", [None, 1], ids=["serial", "sharded"])
def test_a_bus_hook_without_telemetry_is_refused_in_one_line(shard_days):
    with pytest.raises(ValueError) as err:
        run_study(TINY, shard_days=shard_days, telemetry=False, bus_hook=lambda bus: None)
    assert str(err.value).startswith("bus_hook needs telemetry")
    assert "\n" not in str(err.value)


def test_every_pass_is_differenced_without_telemetry(monkeypatch):
    """The collector's counter-went-backwards check lives in
    ``sample_delta``; a campaign with no bus still runs it on every pass
    after the baseline."""
    import repro.hpm.collector as collector

    calls = []
    original = collector.sample_delta

    def counting(before, after):
        calls.append(after.time)
        return original(before, after)

    monkeypatch.setattr(collector, "sample_delta", counting)
    dataset = run_study(TINY, telemetry=False)
    assert calls == [iv.end for iv in dataset.collector.intervals()]
    assert len(calls) == TINY.n_days * 96  # every 15-minute pass


class TestReadersKeepTheirTelemetry:
    def test_a_sweep_single_cell_keeps_its_telemetry_block(self, built):
        spec = SweepSpec.from_dict(
            {"name": "t", "base": {"n_days": 1, "n_nodes": 8, "n_users": 4, "seed": 3}}
        )
        document = execute_cell(plan_sweep(spec).cells[0], spec)
        telemetry = document["summary"]["telemetry"]
        assert telemetry is not None and telemetry["intervals_seen"] > 0
        assert built["TelemetryService"] == 1

    def test_fleet_members_keep_alerts_total(self):
        spec = FleetSpec(
            members=(
                MemberSpec(name="a", n_nodes=16),
                MemberSpec(name="b", n_nodes=16, fault_profile="pathological"),
            ),
            seed=5,
            n_days=2,
            n_users=6,
        )
        members = fleet_summary(run_fleet(spec))["fleet"]["members"]
        assert [m["name"] for m in members] == ["a", "b"]
        assert all("alerts_total" in m for m in members)
        assert members[1]["alerts_total"] > 0
