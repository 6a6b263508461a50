"""Shared campaign for the benchmark/experiment harness.

One campaign is run per session and every table/figure regenerates from
it — the same structure as the paper (nine months of data, one analysis
pass).  Default length is 60 days so the suite runs in ~20 s; set
``REPRO_BENCH_DAYS=270`` to regenerate the full nine-month study (the
numbers recorded in EXPERIMENTS.md come from that setting).
"""

from __future__ import annotations

import os

import pytest

from repro.core.study import StudyConfig, run_study

BENCH_DAYS = int(os.environ.get("REPRO_BENCH_DAYS", "60"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))


BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def pytest_collection_modifyitems(items):
    """Everything under benchmarks/ carries the registered ``bench``
    marker, so a plain unit run can deselect the timing harness with
    ``pytest tests/ benchmarks/ -m "not bench"``.  The hook sees the
    whole session's items, so scope the marker by path."""
    for item in items:
        if str(item.path).startswith(BENCH_DIR):
            item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session")
def campaign():
    """The measured dataset every experiment analyses."""
    return run_study(
        StudyConfig(seed=BENCH_SEED, n_days=BENCH_DAYS, n_nodes=144, n_users=60)
    )
