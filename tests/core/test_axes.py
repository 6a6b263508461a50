"""Every named setting moves the model it claims to move, or is on record
as inert.

Each axis of :data:`repro.core.study.AXES` (``seed`` excepted) runs at
two values on a small campaign where jobs page and some run wide, and
the sweep metrics must differ.  An axis known to move nothing is listed
in :data:`INERT`, and there the metrics must be identical: a change that
makes one act fails here until it leaves the set.
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
    "tlb_entries": (512, 1024),
    "page_kb": (4, 16),
    "memory_mb": (64, 256),
    "paging_fault_limit": (110.0, 40.0),
    "switch_latency_us": (45.0, 90.0),
    "switch_bandwidth_mb_s": (34.0, 17.0),
}

#: Axes that move no metric.  Job profiles never read the TLB entry
#: count, and they are costed with the reference switch: nothing
#: measured reads a machine's own switch constants (docs/SWEEPS.md,
#: "Axes that move nothing").
INERT = {"tlb_entries", "switch_latency_us", "switch_bandwidth_mb_s"}


def metrics(axis: str, value) -> str:
    dataset = run_study(resolve_config({**FIXTURE, axis: value}))
    return json.dumps(collect_metrics(dataset), sort_keys=True)


def test_every_axis_but_seed_has_two_values():
    assert set(VALUES) == set(AXES) - {"seed"}
    assert INERT <= set(VALUES)


def test_fixture_pages_and_runs_wide_jobs():
    records = run_study(resolve_config(FIXTURE)).accounting.records
    assert any(r.system_user_fxu_ratio > 0.5 for r in records)  # §6's paging signature
    assert any(r.nodes_requested > VALUES["scheduler_wide_threshold"][1] for r in records)


@pytest.mark.parametrize("axis", sorted(set(AXES) - {"seed"}))
def test_axis_moves_the_metrics_unless_known_inert(axis):
    a, b = VALUES[axis]
    same = metrics(axis, a) == metrics(axis, b)
    if axis in INERT:
        assert same, f"{axis} now moves the metrics: take it out of INERT"
    else:
        assert not same, f"{axis} moved no metric between {a!r} and {b!r}"
