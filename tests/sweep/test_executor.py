"""Cell execution: degeneracy, caching, repeat estimates, zero-job cells."""

from __future__ import annotations

import pytest

import repro.sweep.executor as executor_mod
from repro.core.study import WorkloadStudy
from repro.analysis.export import dataset_summary
from repro.sweep import (
    SweepSpec,
    execute_cell,
    plan_sweep,
    resolve_config,
    run_sweep,
)

#: Small enough to run in a unit test, big enough to schedule real jobs.
TINY = {"n_days": 1, "n_nodes": 8, "n_users": 4, "seed": 3}

#: A deterministic configuration that accounts zero jobs (demand so low
#: the single day schedules nothing) — the executor's exit-1 signal.
ZERO_JOBS = {
    "n_days": 1,
    "n_nodes": 8,
    "n_users": 2,
    "demand_mean": 0.001,
    "seed": 8,
}


def make(**kw):
    kw.setdefault("name", "t")
    kw.setdefault("base", dict(TINY))
    kw.setdefault("axes", {})
    return SweepSpec.from_dict(kw)


class TestDegeneracy:
    def test_no_axes_cell_summary_is_the_study_summary(self):
        """The acceptance contract: a sweep of nothing IS sp2-study."""
        spec = make()
        plan = plan_sweep(spec)
        document = execute_cell(plan.cells[0], spec)
        expected = dataset_summary(WorkloadStudy(resolve_config(TINY)).run())
        assert document["summary"] == expected

    def test_workers_do_not_change_the_document(self, monkeypatch):
        spec = make(shard_days=1)
        plan = plan_sweep(spec)
        one = execute_cell(plan.cells[0], spec, workers=1)
        two = execute_cell(plan.cells[0], spec, workers=2)
        assert one == two
        # Without shard_days the worker count must not choose a shard
        # plan either, even for a campaign longer than the default width.
        monkeypatch.setattr("repro.parallel.plan.DEFAULT_SHARD_DAYS", 1)
        spec = make(base={**TINY, "n_days": 2})
        plan = plan_sweep(spec)
        one = execute_cell(plan.cells[0], spec, workers=1)
        two = execute_cell(plan.cells[0], spec, workers=2)
        assert one == two


class TestCaching:
    def test_first_run_executes_everything(self, tmp_path):
        plan = plan_sweep(make(axes={"page_kb": [4, 16]}))
        result = run_sweep(plan, cache_dir=str(tmp_path))
        assert result.executed == 2 and result.reused == 0
        assert result.reuse_fraction == 0.0

    def test_unchanged_spec_rerun_executes_zero_campaigns(
        self, tmp_path, monkeypatch
    ):
        plan = plan_sweep(make(axes={"page_kb": [4, 16]}))
        first = run_sweep(plan, cache_dir=str(tmp_path))

        def boom(*a, **kw):  # any execution now is a cache failure
            raise AssertionError("re-run executed a campaign")

        monkeypatch.setattr(executor_mod, "execute_cell", boom)
        second = run_sweep(plan, cache_dir=str(tmp_path))
        assert second.executed == 0 and second.reused == 2
        assert second.reuse_fraction == 1.0
        assert [r.document for r in second.results] == [
            r.document for r in first.results
        ]

    def test_edited_spec_reexecutes_only_changed_cells(self, tmp_path):
        run_sweep(
            plan_sweep(make(axes={"page_kb": [4, 16]})),
            cache_dir=str(tmp_path),
        )
        grown = run_sweep(
            plan_sweep(make(axes={"page_kb": [4, 16, 8]})),
            cache_dir=str(tmp_path),
        )
        assert grown.reused == 2 and grown.executed == 1
        assert [r.cached for r in grown.results] == [True, True, False]

    def test_force_recomputes(self, tmp_path):
        plan = plan_sweep(make())
        run_sweep(plan, cache_dir=str(tmp_path))
        forced = run_sweep(plan, cache_dir=str(tmp_path), force=True)
        assert forced.executed == 1 and forced.reused == 0

    def test_no_cache_dir_always_executes(self):
        plan = plan_sweep(make())
        result = run_sweep(plan)
        assert result.executed == 1 and result.reused == 0

    def test_progress_hook_sees_cached_flag(self, tmp_path):
        plan = plan_sweep(make())
        seen: list[tuple[str, bool]] = []
        run_sweep(
            plan,
            cache_dir=str(tmp_path),
            progress=lambda cell, cached: seen.append((cell.name, cached)),
        )
        run_sweep(
            plan,
            cache_dir=str(tmp_path),
            progress=lambda cell, cached: seen.append((cell.name, cached)),
        )
        assert seen == [("base", False), ("base", True)]


class TestRepeat:
    def test_repeat_cells_carry_estimates(self):
        spec = make(repeat={"seeds": [1, 2]})
        plan = plan_sweep(spec)
        document = execute_cell(plan.cells[0], spec)
        assert document["summary"] is None
        assert document["repeat"]["n"] == 2
        est = document["estimates"]["campaign.jobs_accounted"]
        assert est["ci_low"] <= est["mean"] <= est["ci_high"]
        assert est["rule"] == document["repeat"]["rule"]
        # Point metrics are the across-seed means of the samples.
        samples = document["samples"]["campaign.jobs_accounted"]["values"]
        mean = sum(samples) / len(samples)
        assert document["metrics"]["campaign.jobs_accounted"] == pytest.approx(mean)

    def test_repeat_jobs_sums_all_seeds(self):
        spec = make(repeat={"seeds": [1, 2]})
        plan = plan_sweep(spec)
        result = run_sweep(plan)
        samples = result.results[0].document["samples"][
            "campaign.jobs_accounted"
        ]["values"]
        assert result.results[0].jobs == pytest.approx(sum(samples))


class TestZeroJobs:
    def test_zero_job_cell_is_reported(self):
        result = run_sweep(plan_sweep(make(base=dict(ZERO_JOBS))))
        assert result.zero_job_cells() == ["base"]
        assert result.results[0].jobs == 0

    def test_healthy_cell_is_not(self):
        result = run_sweep(plan_sweep(make()))
        assert result.zero_job_cells() == []


class TestSweepDocument:
    def test_document_shape(self, tmp_path):
        spec = make(axes={"page_kb": [4, 16]})
        result = run_sweep(plan_sweep(spec), cache_dir=str(tmp_path))
        document = result.document()
        assert document["spec"] == spec.to_dict()
        sweep = document["sweep"]
        assert sweep["name"] == "t"
        assert sweep["executed"] == 2 and sweep["reused"] == 0
        assert [c["name"] for c in sweep["cells"]] == [
            "page_kb=4",
            "page_kb=16",
        ]
