"""Golden-file plumbing.

Golden files pin the paper-facing artifacts (Tables 1–4, the headline
comparison, the ``--json`` summary) so a perf refactor cannot silently
shift the paper's numbers.  When a change *intentionally* moves them,
regenerate with::

    PYTHONPATH=src python -m pytest tests/golden -q --update-golden

and review the diff like any other code change (see CONTRIBUTING.md).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.core.study import StudyConfig, StudyDataset, run_study

GOLDEN_DIR = pathlib.Path(__file__).parent / "data"


class GoldenChecker:
    def __init__(self, update: bool) -> None:
        self.update = update

    def check(self, name: str, text: str) -> None:
        path = GOLDEN_DIR / name
        if self.update:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            return
        assert path.exists(), (
            f"golden file {path} missing — generate it with "
            f"`pytest tests/golden --update-golden`"
        )
        expected = path.read_text()
        assert text == expected, (
            f"{name} drifted from its golden copy. If the change is "
            f"intentional, regenerate with `pytest tests/golden "
            f"--update-golden` and commit the diff."
        )


@pytest.fixture
def golden(request: pytest.FixtureRequest) -> GoldenChecker:
    return GoldenChecker(bool(request.config.getoption("--update-golden")))


@pytest.fixture(scope="module")
def default_month() -> StudyDataset:
    """A 30-day campaign at the paper's scale and the *default* seed —
    the configuration whose numbers the golden files pin."""
    return run_study(StudyConfig(seed=0, n_days=30, n_nodes=144, n_users=60))
