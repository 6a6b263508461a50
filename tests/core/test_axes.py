"""Every named setting moves the model it claims to move.

Each axis of :data:`repro.core.study.AXES` (``seed`` excepted) runs at
two values on a small campaign where jobs page and some run wide, and
the sweep metrics must differ.  A setting that would move nothing is
not offered: a new axis joins :data:`VALUES` and must move them too.
"""

from __future__ import annotations

import json

import pytest

from repro.core.study import AXES, resolve_config, run_study
from repro.stats.metrics import collect_metrics

#: Three days on 32 nodes of 64 MB: jobs page, and 28- and 32-node jobs
#: run beside 16-node ones.
FIXTURE = {"seed": 1, "n_days": 3, "n_nodes": 32, "n_users": 8, "memory_mb": 64}

#: Two values per axis.
VALUES = {
    "n_days": (3, 4),
    "n_nodes": (32, 48),
    "n_users": (8, 12),
    "demand_mean": (0.3, 0.8),
    "fault_profile": (None, "pathological"),
    "scheduler_policy": ("backfill", "fifo"),
    "scheduler_wide_threshold": (64, 8),
    "page_kb": (4, 16),
    "memory_mb": (64, 256),
    "paging_fault_limit": (110.0, 40.0),
}


def metrics(axis: str, value) -> str:
    dataset = run_study(resolve_config({**FIXTURE, axis: value}))
    return json.dumps(collect_metrics(dataset), sort_keys=True)


def test_every_axis_but_seed_has_two_values():
    assert set(VALUES) == set(AXES) - {"seed"}


def test_fixture_pages_and_runs_wide_jobs():
    records = run_study(resolve_config(FIXTURE)).accounting.records
    assert any(r.system_user_fxu_ratio > 0.5 for r in records)  # §6's paging signature
    assert any(r.nodes_requested > VALUES["scheduler_wide_threshold"][1] for r in records)


@pytest.mark.parametrize("axis", sorted(set(AXES) - {"seed"}))
def test_axis_moves_the_metrics_unless_known_inert(axis):
    """No axis is known inert: every one must move the metrics."""
    a, b = VALUES[axis]
    assert metrics(axis, a) != metrics(axis, b), f"{axis} moved no metric between {a!r} and {b!r}"
