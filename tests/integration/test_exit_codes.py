"""The repo-wide 0/1/2 exit-code contract (CONTRIBUTING.md), enforced
uniformly across every sp2-* entry point."""

from __future__ import annotations

import pytest

import repro.cli
import repro.fleet_cli
import repro.ops_cli
import repro.sweep_cli
import repro.trace_cli
from repro.core.study import StudyConfig

#: Every installed console entry point (pyproject [project.scripts]).
ENTRY_POINTS = [
    pytest.param(repro.cli.main, id="sp2-study"),
    pytest.param(repro.ops_cli.main, id="sp2-ops"),
    pytest.param(repro.trace_cli.main, id="sp2-trace"),
    pytest.param(repro.fleet_cli.main, id="sp2-fleet"),
    pytest.param(repro.sweep_cli.main, id="sp2-sweep"),
]


@pytest.mark.parametrize("main", ENTRY_POINTS)
def test_unknown_flag_is_usage_error(main, capsys):
    with pytest.raises(SystemExit) as e:
        main(["--no-such-flag"])
    assert e.value.code == 2


@pytest.mark.parametrize("main", ENTRY_POINTS)
def test_help_exits_zero(main, capsys):
    with pytest.raises(SystemExit) as e:
        main(["--help"])
    assert e.value.code == 0


class TestOperationalFailures:
    """Exit 1: the command ran but measured nothing."""

    def test_sweep_zero_cell_plan(self, tmp_path, capsys):
        spec = tmp_path / "s.yaml"
        spec.write_text("name: s\naxes:\n  tlb_entries: [256, 512]\n")
        rc = repro.sweep_cli.main(
            [
                "plan", "--spec", str(spec),
                "--only", "tlb_entries=256", "--only", "tlb_entries=512",
            ]
        )
        assert rc == 1

    def test_sweep_zero_job_cell(self, tmp_path, capsys):
        spec = tmp_path / "s.yaml"
        spec.write_text(
            "name: s\nbase:\n  n_days: 1\n  n_nodes: 8\n  n_users: 2\n"
            "  demand_mean: 0.001\n  seed: 8\n"
        )
        assert repro.sweep_cli.main(["run", "--spec", str(spec)]) == 1


class TestUsageErrors:
    """Exit 2: the request itself was wrong."""

    def test_study_resume_without_checkpoint_dir(self, capsys):
        assert repro.cli.main(["--resume"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["--fault-profile", "bogus"], ["repeat", "--days", "0", "--seeds", "0"]],
        ids=["study", "repeat"],
    )
    def test_study_bad_config_is_one_line_error(self, argv, capsys):
        assert repro.cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["--days", "1", "--nodes", "8", "--users", "2"],
            ["repeat", "--days", "1", "--nodes", "8", "--users", "2", "--seeds", "0"],
        ],
        ids=["study", "repeat"],
    )
    def test_accrual_backend_flag_is_refused(self, argv, capsys):
        """Counters accrue in one store; there is no backend to pick."""
        with pytest.raises(SystemExit) as e:
            repro.cli.main([*argv, "--accrual-backend", "scalar"])
        assert e.value.code == 2
        assert "unrecognized arguments: --accrual-backend scalar" in capsys.readouterr().err

    def test_study_config_refuses_accrual_backend(self):
        with pytest.raises(TypeError, match="accrual_backend"):
            StudyConfig(accrual_backend="scalar")
        assert StudyConfig().accrual_backend == "auto"

    def test_sweep_bad_spec(self, tmp_path, capsys):
        spec = tmp_path / "s.yaml"
        spec.write_text("name: s\naxes:\n  bogus: [1]\n")
        assert repro.sweep_cli.main(["plan", "--spec", str(spec)]) == 2
