"""BENCHMARK.json, the metric names the benchmark prints, and its refusals."""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import catalog, check, reference, run
from perfbench.probe import Recorder, layer_metrics

ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_benchmark_json_is_generated_from_the_catalog():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == catalog.benchmark_json()


def test_benchmark_json_respects_the_format_limits():
    doc = catalog.benchmark_json()
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(len(n) <= 64 for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def _fake_iteration(rec: Recorder, wall: float, seed: int) -> dict:
    layers = layer_metrics(rec, workers=1)
    layers["trace.coverage"] = 0.5
    return {
        "seed": seed,
        "attempted": 1,
        "failed": 0,
        "errors": [],
        "metrics": {"setup_s": 0.5, "wall_s": wall, "node_days_per_s": 100.0, "peak_rss_mb": 9.0},
        "layers": layers,
        "spans": [s.to_dict() for s in rec.tracer.spans],
    }


def test_printed_metric_names_equal_benchmark_json(tmp_path, monkeypatch):
    rec = Recorder("names", full=True)
    with rec.span("analysis.json"):
        pass
    untraced = [_fake_iteration(rec, wall, seed) for seed, wall in enumerate((1.0, 2.0, 4.0))]
    traced = [_fake_iteration(rec, wall, seed) for seed, wall in enumerate((1.1, 2.2, 4.8))]
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(run, "ROOT", tmp_path)
    passes = [reference.NOMINAL_PASS_S] * 3
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        args = run.parse_args(["--workload", "paper-study", "--seed", "0", "--trace", str(trace)])
        metrics, _ = run.summarize(args, untraced, traced, passes, 0.0)
        assert list(metrics) == [m["name"] for m in doc[key]]
        assert all(metrics[m["name"]]["unit"] == m["unit"] for m in doc[key])
    # Paired per seed: +10%, +10%, +20% → median +10%.
    assert abs(metrics["trace.overhead"]["value"] - 0.1) < 1e-12
    assert (tmp_path / ".perfbench" / "trace-paper-study-seed0.json").exists()


def test_plan_fixes_inputs_by_seed():
    args = run.parse_args(["--workload", "paper-study", "--seed", "2", "--seconds", "30"])
    first = run.plan(args)
    assert first == run.plan(args) and len(first) == run.POOL_SIZE
    seeds = [s for s, traced in first if not traced]
    recorded = check.load_recorded()["paper-study/30d-144n-60u"]
    assert sorted(seeds) == run.seed_pool(recorded)
    args.trace = 1
    traced = run.plan(args)
    assert [s for s, _ in traced] == [seeds[0]] * 2 + [seeds[1]] * 2 + [seeds[2]] * 2
    assert [t for _, t in traced] == [False, True, True, False, False, True]
    args.seed, args.trace = 3, 0
    assert [s for s, _ in run.plan(args)] != seeds


def test_a_run_takes_iterations_for_its_seconds(tmp_path, monkeypatch):
    """An end-to-end run makes at least three iterations, then as many as
    fit; a traced run makes its three pairs."""
    monkeypatch.setattr(reference, "sample", lambda: [reference.NOMINAL_PASS_S])

    def iteration(workload, seed, run_dir, run_id, index, traced, timeout):
        time.sleep(0.1)
        return {"metrics": {}}

    monkeypatch.setattr(run, "run_iteration", iteration)
    for trace in (0, 1):
        args = run.parse_args(["--workload", "paper-study", "--seed", "0", "--seconds", "1",
                               "--trace", str(trace)])
        untraced, traced, passes = run.measure(
            args, run.plan(args), tmp_path, "t", time.perf_counter()
        )
        done = len(untraced) + len(traced)
        assert len(passes) == done + 1
        if trace:
            assert len(untraced) == len(traced) == run.MIN_ITERATIONS
        else:
            assert 7 <= done <= 11 and not traced


def test_seed_pool_keeps_seeds_central_in_events_and_rss():
    # Events rise with the seed; RSS falls with it, except that seeds 0
    # and 1 have the middle RSS.
    recorded = {
        str(s): {"events": 1000 + s, "peak_rss_mb": float(100 - s)} for s in range(40)
    }
    recorded["0"]["peak_rss_mb"] = recorded["1"]["peak_rss_mb"] = 80.5
    pool = run.seed_pool(recorded)
    assert len(pool) == run.POOL_SIZE
    assert 0 not in pool and 1 not in pool and 39 not in pool
    assert pool == sorted(pool) and {19, 20} <= set(pool)


def test_times_and_rates_are_reported_at_the_reference_speed():
    assert run.at_nominal_speed(3.0, "s", 1.5) == 2.0
    assert run.at_nominal_speed(300.0, "us", 1.5) == 200.0
    assert run.at_nominal_speed(100.0, "node-days/s", 1.5) == 150.0
    assert run.at_nominal_speed(9.0, "MiB", 1.5) == 9.0
    assert run.at_nominal_speed(0.5, "fraction", 1.5) == 0.5
    rec = Recorder("speed", full=True)
    untraced = [_fake_iteration(rec, 3.0, seed) for seed in range(3)]
    args = run.parse_args(["--workload", "paper-study", "--seed", "0", "--trace", "0"])
    passes = [reference.NOMINAL_PASS_S * 2] * 5 + [reference.NOMINAL_PASS_S * 9]
    metrics, lines = run.summarize(args, untraced, [], passes, 0.0)
    assert metrics["wall_s"]["value"] == 1.5
    assert metrics["node_days_per_s"]["value"] == 200.0
    assert metrics["peak_rss_mb"]["value"] == 9.0
    assert any("host slowdown 2 " in line for line in lines)


def test_reference_pass_is_fixed_work():
    assert reference.reference_pass() > 0
    assert reference.slowdown([reference.NOMINAL_PASS_S] * 3) == 1.0


def test_a_timed_out_iteration_takes_its_workers_down(tmp_path):
    """The iteration and the shard workers it forked all end."""
    run_id = f"timeout-{os.getpid()}"
    with pytest.raises(run.BenchmarkError, match="ran past"):
        run.run_iteration("sharded-faults", 0, tmp_path, run_id, 0, False, timeout=1.0)
    time.sleep(0.5)
    left = []
    for cmdline in pathlib.Path("/proc").glob("[0-9]*/cmdline"):
        try:
            if run_id.encode() in cmdline.read_bytes():
                left.append(cmdline.parent.name)
        except OSError:
            continue
    assert not left, f"processes still running: {left}"


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: exit non-zero,
    name the workload, print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "small-sweep" in proc.stderr
