"""Fleet federation end-to-end: determinism contracts and the CLI.

The two contracts ISSUE-level tests pin:

* a **single-member fleet** is byte-identical to the single-machine
  study at the same seed — serially (vs :class:`WorkloadStudy`) and
  through the sharded runner (vs :func:`run_parallel_study`), with and
  without fault injection;
* fleet output is **invariant to the worker count** (like the shard
  runner) and to **member ordering** (member results are keyed by
  name-seeded RNG streams, not position).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis.export import dataset_to_json
from repro.core.study import StudyConfig, WorkloadStudy
from repro.faults.profile import FaultProfile
from repro.fleet import (
    FleetSpec,
    MemberSpec,
    fleet_summary,
    render_fleet_report,
    run_fleet,
)
from repro.fleet_cli import main

SOLO = dict(seed=3, n_days=4, n_users=20)


def _assert_same_dataset(a, b) -> None:
    assert a.collector.intervals() == b.collector.intervals()
    sa, sb = a.collector.samples, b.collector.samples
    assert len(sa) == len(sb)
    for x, y in zip(sa, sb):
        assert x.time == y.time
        assert np.array_equal(x.matrix, y.matrix)
    assert dataset_to_json(a) == dataset_to_json(b)


class TestSingleMemberByteIdentity:
    def test_serial_fleet_equals_single_machine_study(self):
        spec = FleetSpec(members=(MemberSpec(name="solo", n_nodes=64),), **SOLO)
        fleet_ds = run_fleet(spec).member("solo")
        study_ds = WorkloadStudy(StudyConfig(n_nodes=64, **SOLO)).run()
        _assert_same_dataset(fleet_ds, study_ds)

    def test_serial_fleet_equals_study_under_faults(self):
        """A one-member fleet keeps the campaign-root fault tree, so even
        fault schedules match the single-machine path exactly."""
        spec = FleetSpec(
            members=(MemberSpec(name="solo", n_nodes=64, fault_profile="mild"),),
            **SOLO,
        )
        fleet_ds = run_fleet(spec).member("solo")
        study_ds = WorkloadStudy(
            StudyConfig(n_nodes=64, fault_profile=FaultProfile.named("mild"), **SOLO)
        ).run()
        assert fleet_ds.faults is not None and len(fleet_ds.faults.events) > 0
        _assert_same_dataset(fleet_ds, study_ds)

    def test_sharded_fleet_equals_parallel_study(self):
        """Routing a single-member fleet through the shard runner equals
        running the member's config through it directly: the injected
        routed trace is the trace the runner would generate."""
        from repro.parallel.runner import run_parallel_study

        spec = FleetSpec(members=(MemberSpec(name="solo", n_nodes=64),), **SOLO)
        fleet_ds = run_fleet(spec, workers=1, shard_days=4).member("solo")
        study_ds = run_parallel_study(
            StudyConfig(n_nodes=64, **SOLO), workers=1, shard_days=4
        )
        _assert_same_dataset(fleet_ds, study_ds)


@pytest.fixture(scope="module")
def duo_spec():
    return FleetSpec(
        members=(
            MemberSpec(name="a", n_nodes=32),
            MemberSpec(name="b", n_nodes=64, fault_profile="mild"),
        ),
        seed=5,
        n_days=4,
        n_users=16,
    )


class TestFleetInvariance:
    def test_worker_count_never_changes_output(self, duo_spec):
        f1 = run_fleet(duo_spec, workers=1, shard_days=2)
        f3 = run_fleet(duo_spec, workers=3, shard_days=2)
        assert json.dumps(fleet_summary(f1), sort_keys=True) == json.dumps(
            fleet_summary(f3), sort_keys=True
        )
        for name in ("a", "b"):
            _assert_same_dataset(f1.member(name), f3.member(name))

    def test_member_order_never_changes_member_results(self, duo_spec):
        """Fault schedules are keyed by member *name*, traces by the
        shared fleet stream — reversing the member tuple must reproduce
        each member's dataset exactly."""
        reversed_spec = FleetSpec(
            members=tuple(reversed(duo_spec.members)),
            seed=duo_spec.seed,
            n_days=duo_spec.n_days,
            n_users=duo_spec.n_users,
        )
        fwd = run_fleet(duo_spec)
        rev = run_fleet(reversed_spec)
        for name in ("a", "b"):
            _assert_same_dataset(fwd.member(name), rev.member(name))


class TestHeterogeneousFleet:
    def test_three_center_fleet_end_to_end(self):
        """The acceptance-criteria shape: 64/144/256 nodes, mixed switch
        and fault configs, run end to end with comparison tables out."""
        spec = FleetSpec(
            name="accept",
            members=(
                MemberSpec(
                    name="lewis",
                    n_nodes=64,
                    memory_mb=64,
                    switch_latency_us=90.0,
                    switch_bandwidth_mb_s=17.0,
                    fault_profile="mild",
                ),
                MemberSpec(name="ames", n_nodes=144),
                MemberSpec(
                    name="langley",
                    n_nodes=256,
                    memory_mb=256,
                    switch_latency_us=30.0,
                    fault_profile="pathological",
                ),
            ),
            seed=1,
            n_days=3,
            n_users=30,
        )
        fleet = run_fleet(spec)
        summary = fleet_summary(fleet)["fleet"]
        assert summary["total_nodes"] == 464
        assert summary["n_members"] == 3
        assert summary["total_jobs_accounted"] == sum(
            m["jobs_accounted"] for m in summary["members"]
        )
        by_name = {m["name"]: m for m in summary["members"]}
        # Faulted centers carry fault forensics; healthy ones don't.
        assert "faults" in by_name["lewis"] and "faults" in by_name["langley"]
        assert "faults" not in by_name["ames"]
        report = render_fleet_report({"fleet": summary})
        for fragment in (
            "lewis",
            "ames",
            "langley",
            "Fleet utilization by center",
            "Job-size distribution",
            "Application mix",
        ):
            assert fragment in report

    def test_small_member_memory_pressure_shows_up(self):
        """Heterogeneity must be physical, not cosmetic: starving a
        center of memory (32 MB vs the reference 128 MB) must depress
        its delivered per-node performance at equal node count."""
        def member(name, **overrides):
            return MemberSpec(name=name, n_nodes=32, **overrides)

        spec = FleetSpec(
            members=(member("starved", memory_mb=32), member("roomy")),
            seed=2,
            n_days=4,
            n_users=16,
            routing="round-robin",
        )
        fleet = run_fleet(spec)
        by_name = {m["name"]: m for m in fleet_summary(fleet)["fleet"]["members"]}
        assert (
            by_name["starved"]["time_weighted_mflops_per_node"]
            < by_name["roomy"]["time_weighted_mflops_per_node"]
        )


class TestFleetCli:
    def test_run_report_compare_round_trip(self, tmp_path, capsys):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        base = ["run", "--preset", "demo2", "--days", "2", "--users", "8"]
        assert main([*base, "--out", str(out_a)]) == 0
        assert main([*base, "--seed", "9", "--out", str(out_b)]) == 0
        capsys.readouterr()

        assert main(["report", str(out_a)]) == 0
        report = capsys.readouterr().out
        assert "Fleet utilization by center" in report
        assert "west" in report and "east" in report

        assert main(["compare", str(out_a), str(out_b)]) == 0
        cmp_out = capsys.readouterr().out
        assert "Fleet comparison" in cmp_out and "Delta %" in cmp_out

    def test_run_json_block_matches_saved_document(self, tmp_path, capsys):
        out = tmp_path / "fleet.json"
        rc = main(
            [
                "run",
                "--preset",
                "demo2",
                "--days",
                "2",
                "--users",
                "8",
                "--json",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        saved = json.loads(out.read_text())
        assert printed == saved
        assert printed["spec"]["members"][0]["name"] == "west"
        assert printed["fleet"]["routing"] == "home-center"

    def test_custom_spec_file(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec = FleetSpec(
            members=(MemberSpec(name="tiny", n_nodes=16),),
            name="custom",
            n_days=2,
            n_users=6,
        )
        spec_file.write_text(json.dumps(spec.to_dict()))
        assert main(["run", "--spec", str(spec_file)]) == 0
        assert "custom" in capsys.readouterr().out

    def test_invalid_spec_file_fails_cleanly(self, tmp_path, capsys):
        spec_file = tmp_path / "bad.json"
        spec_file.write_text(json.dumps({"members": [], "name": "bad"}))
        assert main(["run", "--spec", str(spec_file)]) == 2
        assert "non-empty 'members'" in capsys.readouterr().err

    def test_report_rejects_non_fleet_json(self, tmp_path, capsys):
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"hello": 1}))
        assert main(["report", str(other)]) == 2
        assert "no 'fleet' block" in capsys.readouterr().err


class TestRunExitCodes:
    def test_zero_job_fleet_exits_1(self, capsys, monkeypatch):
        """A fleet where no member finished a job must not read as success."""
        import repro.fleet_cli as fleet_cli

        real_run = fleet_cli.run_fleet

        def hollow(spec, **kwargs):
            fleet = real_run(spec, **kwargs)
            for member in fleet.members:
                member.dataset.accounting.records.clear()
            return fleet

        monkeypatch.setattr(fleet_cli, "run_fleet", hollow)
        rc = fleet_cli.main(["run", "--preset", "demo2", "--days", "1"])
        assert rc == 1
        assert "zero jobs" in capsys.readouterr().err
