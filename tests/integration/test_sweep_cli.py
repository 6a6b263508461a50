"""The sp2-sweep command-line interface, driven in-process."""

from __future__ import annotations

import json

import pytest

from repro.sweep_cli import main

TINY_SPEC = """\
# two-cell toy sweep
name: toy
base:
  n_days: 1
  n_nodes: 8
  n_users: 4
  seed: 3
axes:
  page_kb: [4, 16]
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "toy.yaml"
    path.write_text(TINY_SPEC)
    return str(path)


class TestAxes:
    def test_lists_every_axis(self, capsys):
        assert main(["axes"]) == 0
        out = capsys.readouterr().out
        for name in ("page_kb", "fault_profile", "memory_mb"):
            assert name in out
        for name in ("tlb_entries", "switch_latency_us", "switch_bandwidth_mb_s"):
            assert name not in out


class TestPlan:
    def test_plan_table_and_summary_line(self, spec_file, capsys):
        assert main(["plan", "--spec", spec_file]) == 0
        out = capsys.readouterr().out
        assert "Sweep plan 'toy': 2 cells" in out
        assert "page_kb=4 (baseline)" in out
        assert "cells: 2 planned, 2 to execute, 0 cached" in out

    def test_plan_sees_cache(self, spec_file, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        main(["run", "--spec", spec_file, "--cache-dir", cache])
        capsys.readouterr()
        assert main(["plan", "--spec", spec_file, "--cache-dir", cache]) == 0
        assert "cells: 2 planned, 0 to execute, 2 cached" in capsys.readouterr().out

    def test_only_filters(self, spec_file, capsys):
        assert main(["plan", "--spec", spec_file, "--only", "page_kb=16"]) == 0
        out = capsys.readouterr().out
        assert "1 cells" in out and "page_kb=4" not in out

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("name: x\naxes:\n  page_kbz: [1]\n")
        assert main(["plan", "--spec", str(bad)]) == 2
        assert "unknown axis" in capsys.readouterr().err

    def test_missing_spec_exits_2(self, capsys):
        assert main(["plan", "--spec", "/nonexistent.yaml"]) == 2
        assert "cannot read sweep spec" in capsys.readouterr().err


class TestRun:
    def test_run_rerun_reuse_lines(self, spec_file, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["run", "--spec", spec_file, "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "cells: 2 planned, 2 executed, 0 reused (0% cache reuse)" in out
        assert "Sensitivity to page_kb" in out
        # Unchanged spec: everything from cache, zero campaigns.
        assert main(["run", "--spec", spec_file, "--cache-dir", cache]) == 0
        captured = capsys.readouterr()
        assert (
            "cells: 2 planned, 0 executed, 2 reused (100% cache reuse)"
            in captured.out
        )
        assert captured.err.count(": cache") == 2

    def test_out_document_feeds_report_and_compare(
        self, spec_file, tmp_path, capsys
    ):
        out_file = tmp_path / "sweep.json"
        assert main(["run", "--spec", spec_file, "--out", str(out_file)]) == 0
        capsys.readouterr()
        document = json.loads(out_file.read_text())
        assert [c["name"] for c in document["sweep"]["cells"]] == [
            "page_kb=4",
            "page_kb=16",
        ]
        assert main(["report", str(out_file)]) == 0
        assert "Sweep 'toy': 2 cells" in capsys.readouterr().out
        assert main(["compare", str(out_file), "baseline", "page_kb=16"]) == 0
        compare_out = capsys.readouterr().out
        assert "Differential: page_kb=4 vs page_kb=16" in compare_out
        assert "carry no significance flags" in compare_out

    def test_out_dir_cell_is_byte_identical_to_sp2_study_json(
        self, spec_file, tmp_path, capsys
    ):
        """The degeneracy acceptance contract, end to end through both
        CLIs: a no-axes sweep cell file == `sp2-study --json` output."""
        from repro.cli import main as study_main

        solo = tmp_path / "solo.yaml"
        solo.write_text(
            "name: solo\nbase:\n  n_days: 1\n  n_nodes: 8\n  n_users: 4\n  seed: 3\n"
        )
        out_dir = tmp_path / "cells"
        assert main(["run", "--spec", str(solo), "--out-dir", str(out_dir)]) == 0
        study_json = tmp_path / "study.json"
        assert (
            study_main(
                [
                    "--days", "1", "--nodes", "8", "--users", "4",
                    "--seed", "3", "--json", str(study_json),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (out_dir / "base.json").read_bytes() == study_json.read_bytes()

    def test_json_flag_prints_document(self, spec_file, capsys):
        assert main(["run", "--spec", spec_file, "--json"]) == 0
        out = capsys.readouterr().out
        start = out.index("{")
        end = out.rindex("}") + 1
        document = json.loads(out[start:end])
        assert document["spec"]["name"] == "toy"

    def test_conflicting_only_is_zero_cells_exit_1(self, spec_file, capsys):
        # Repeated --only flags intersect; conflicting values for one
        # axis select nothing — operational failure, not usage error.
        for verb in ("plan", "run"):
            rc = main(
                [
                    verb, "--spec", spec_file,
                    "--only", "page_kb=4", "--only", "page_kb=16",
                ]
            )
            assert rc == 1
            assert "zero cells" in capsys.readouterr().err

    def test_unknown_selector_exits_2(self, spec_file, capsys):
        assert main(["run", "--spec", spec_file, "--only", "page_kb=999"]) == 2
        assert "matches none" in capsys.readouterr().err

    def test_zero_job_cell_exits_1(self, tmp_path, capsys):
        # Demand so low the single day schedules nothing: run finishes,
        # reports, then signals there is nothing to compare.
        spec = tmp_path / "empty.yaml"
        spec.write_text(
            "name: empty\nbase:\n  n_days: 1\n  n_nodes: 8\n  n_users: 2\n"
            "  demand_mean: 0.001\n  seed: 8\n"
        )
        assert main(["run", "--spec", str(spec)]) == 1
        assert "zero jobs" in capsys.readouterr().err


class TestCompareErrors:
    def test_unknown_cell_exits_2(self, spec_file, tmp_path, capsys):
        out_file = tmp_path / "sweep.json"
        main(["run", "--spec", spec_file, "--out", str(out_file)])
        capsys.readouterr()
        assert main(["compare", str(out_file), "baseline", "page_kb=999"]) == 2
        assert "matches none" in capsys.readouterr().err

    def test_unreadable_document_exits_2(self, capsys):
        assert main(["compare", "/nonexistent.json", "a", "b"]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read '/nonexistent.json'")

    def test_non_sweep_document_exits_2(self, tmp_path, capsys):
        bogus = tmp_path / "x.json"
        bogus.write_text('{"campaign": {}}')
        assert main(["report", str(bogus)]) == 2
        assert "no 'sweep' block" in capsys.readouterr().err
