"""Shared fixtures for the ops-service tests.

Campaigns here are deliberately tiny (2 days, 16–32 nodes): every test
in this package feeds or serves them through the hub, and the suite
must stay fast.  The session-scoped fixtures run each campaign once.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import pytest

from repro.core.study import StudyConfig, StudyDataset, run_study
from repro.faults.profile import FaultProfile
from repro.fleet.spec import PRESETS, FleetSpec
from repro.ops.hub import CampaignHub
from repro.ops.ingest import BusTap


def tiny_config(**overrides) -> StudyConfig:
    """Seed 5 under the pathological fault profile fires engine *and*
    fault alerts inside 2 days — the push tests need a campaign that is
    small but not quiet."""
    params = dict(
        seed=5,
        n_days=2,
        n_nodes=16,
        n_users=8,
        fault_profile=FaultProfile.named("pathological"),
    )
    params.update(overrides)
    return StudyConfig(**params)


@pytest.fixture(scope="session")
def tiny_dataset() -> StudyDataset:
    """A 2-day traced faulted campaign: jobs, spans, intervals, alerts."""
    return run_study(tiny_config(), tracing=True)


@pytest.fixture(scope="session")
def tiny_stream() -> list[tuple[str, Any]]:
    """The same campaign's tapped telemetry stream, recorded once: the
    ``(topic, event)`` pairs an ingest tap forwards to the hub."""
    stream: list[tuple[str, Any]] = []
    tap = BusTap(lambda topic, event: stream.append((topic, event)))
    run_study(tiny_config(), tracing=True, bus_hook=tap.attach)
    return stream


def feed(hub: CampaignHub, name: str, stream: list[tuple[str, Any]]) -> None:
    """Apply a recorded stream to one hub campaign, as the ingest does."""
    for topic, event in stream:
        hub.feed(name, topic, event)


@pytest.fixture(scope="session")
def tiny_fleet_spec() -> FleetSpec:
    """The demo2 two-member fleet, shortened to 2 days."""
    return dataclasses.replace(PRESETS["demo2"], n_days=2)
