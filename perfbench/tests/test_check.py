"""Output digests: the recorded references and what a mismatch does."""

from __future__ import annotations

import json
import pathlib

from perfbench import check
from perfbench.workloads import WORKLOADS, Outcome, sweep_band_failures

ROOT = pathlib.Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "tests" / "golden" / "data"


def test_recorded_paper_study_digest_is_the_golden_one():
    """Seed 0 at 30 days, 144 nodes, 60 users is the goldens' campaign."""
    study = WORKLOADS["paper-study"]
    assert (study.days, study.nodes, study.users) == (30, 144, 60)
    assert check.recorded_digest(study.key, 0) == check.golden_digest(GOLDEN)


def test_every_workload_has_recorded_seeds():
    table = check.load_recorded()
    for workload in WORKLOADS.values():
        recorded = table.get(workload.key, {})
        assert set(recorded) == {str(s) for s in range(128)}, workload.key
        assert all(
            e["digest"] and e["peak_rss_mb"] > 0 and e["events"] > 0 for e in recorded.values()
        )


def test_a_perturbed_output_fails_the_digest_check():
    parts = [(name, (GOLDEN / name).read_text()) for name in check.GOLDEN_PARTS]
    key, seed = WORKLOADS["paper-study"].key, 0
    assert check.verify(key, seed, check.digest(parts), fallback=lambda: ["unused"]) == []
    name, text = parts[1]
    parts[1] = (name, text.replace("1", "2", 1))
    problems = check.verify(key, seed, check.digest(parts), fallback=lambda: ["unused"])
    assert len(problems) == 1 and "!= recorded" in problems[0]


def test_digest_separates_parts():
    assert check.digest([("a", "bc")]) != check.digest([("ab", "c")])


def test_unrecorded_seed_falls_back_to_the_bands():
    problems = check.verify("no-such-workload", 0, "x" * 64, fallback=lambda: ["band"])
    assert problems == ["band"]


def test_sweep_bands_want_jobs_and_paging_cost():
    def cell(policy, memory, gflops, jobs=10.0):
        return {
            "name": f"{policy},{memory}",
            "overrides": {"scheduler_policy": policy, "memory_mb": memory},
            "metrics": {"campaign.daily_gflops_mean": gflops, "campaign.jobs_accounted": jobs},
        }

    good = [cell("fifo", 64, 0.1), cell("fifo", 128, 0.4)]
    assert sweep_band_failures(good) == []
    assert sweep_band_failures([cell("fifo", 64, 0.5), cell("fifo", 128, 0.4)])
    assert sweep_band_failures([cell("fifo", 64, 0.1, jobs=0.0), cell("fifo", 128, 0.4)])


def test_outcome_counts_failed_operations():
    out = Outcome(attempted=5, node_days=1)
    out.fail(2, "boom")
    assert (out.failed, out.errors) == (2, ["boom"])
    assert json.dumps(out.errors)
