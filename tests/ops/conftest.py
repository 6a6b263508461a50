"""Shared fixtures for the ops-service tests.

Campaigns here are deliberately tiny (2 days, 16–32 nodes): every test
in this package replays or serves them through the hub, and the suite
must stay fast.  The session-scoped fixtures run each campaign once.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.study import StudyConfig, StudyDataset, WorkloadStudy
from repro.faults.profile import FaultProfile
from repro.fleet.spec import PRESETS, FleetSpec
from repro.tracing.tracer import Tracer


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
    """A 2-day traced faulted campaign: jobs, spans, samples, alerts.
    It keeps its samples, so the hub tests can replay it."""
    return WorkloadStudy(tiny_config(), tracer=Tracer(), keep_samples=True).run()


@pytest.fixture(scope="session")
def tiny_fleet_spec() -> FleetSpec:
    """The demo2 two-member fleet, shortened to 2 days."""
    return dataclasses.replace(PRESETS["demo2"], n_days=2)
