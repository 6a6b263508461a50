"""Shared fixtures.

The campaign fixtures are session-scoped: a small end-to-end study is
expensive enough (~1 s) that the analysis/integration tests share one.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.study import StudyConfig, StudyDataset, run_study


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the tests/golden/ expectation files from the current "
        "outputs instead of comparing against them",
    )


@pytest.fixture(autouse=True)
def _reset_shared_singletons():
    """Restore module-level shared state after every test.

    ``NULL_TRACER`` is a process-wide singleton handed to call sites
    that want a non-None tracer default; a test that enables it, binds a
    clock or a telemetry bus to it, or records spans through it would
    otherwise leak that state into whichever test runs next — the suite
    must pass under ``pytest -p no:randomly`` and any other ordering.
    """
    yield
    from repro.tracing.tracer import NULL_TRACER

    NULL_TRACER.enabled = False
    NULL_TRACER.bus = None
    NULL_TRACER.clock = lambda: 0.0
    NULL_TRACER.spans.clear()
    NULL_TRACER._stack.clear()
    NULL_TRACER._ids = itertools.count(1)


@pytest.fixture(scope="session")
def small_dataset() -> StudyDataset:
    """A 10-day, 64-node campaign — fast, but has real jobs and samples."""
    return run_study(StudyConfig(seed=7, n_days=10, n_nodes=64, n_users=20))


@pytest.fixture(scope="session")
def month_dataset() -> StudyDataset:
    """A 30-day, 144-node campaign — used by calibration-sensitive tests."""
    return run_study(StudyConfig(seed=1, n_days=30, n_nodes=144, n_users=60))
