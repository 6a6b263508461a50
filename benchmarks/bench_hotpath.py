"""Experiment: the vectorized counter-accrual hot path.

Times the same serial campaign under the legacy per-node scalar path and
the batched store (:mod:`repro.power2.batch`), asserts the two datasets
are the *same experiment* (fingerprint match — the backends are bitwise
equivalent), and reports the speedup.

Two entry points, mirroring ``bench_parallel_scaling``:

* ``pytest benchmarks/ --benchmark-only`` runs a short differential
  timing as part of the experiment harness;
* ``python benchmarks/bench_hotpath.py --out benchmarks/BENCH_hotpath.json``
  records the reference numbers *with their per-repeat sample set*.

The ``--check`` gate is statistical (docs/STATS.md): repeats accumulate
adaptively until the speedup's relative standard error converges (or
``--max-repeats`` hits), then the measured sample's confidence interval
is compared against the recorded baseline distribution.  The gate fails
only when the measured CI falls entirely below the tolerance-scaled
baseline CI — noise overlap passes, and converged runs stop early
instead of burning fixed CI minutes.  Baselines recorded before the
statistical gate (no ``samples`` key) fall back to the one-ratio check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

from repro.core.study import StudyConfig, StudyDataset, run_study
from repro.stats.estimators import mean_ci, relative_standard_error
from repro.stats.gate import ci_overlap_gate, render_gate

BACKENDS = ("scalar", "vectorized")


@dataclass(frozen=True)
class HotpathPoint:
    """One row of the backend-timing table."""

    backend: str
    seconds: float
    speedup: float  # vs the scalar row


def _fingerprint(dataset: StudyDataset) -> tuple:
    """A cheap identity for "same campaign" assertions."""
    daily = dataset.daily_gflops()
    return (
        len(dataset.accounting),
        dataset.events_processed,
        len(dataset.collector.samples),
        round(float(daily.sum()), 9) if daily.size else 0.0,
    )


def _paired_run(config: StudyConfig) -> dict[str, float]:
    """One timing of each backend on the same campaign, identity-checked."""
    seconds: dict[str, float] = {}
    reference: tuple | None = None
    for backend in BACKENDS:
        cfg = StudyConfig(
            seed=config.seed,
            n_days=config.n_days,
            n_nodes=config.n_nodes,
            n_users=config.n_users,
            accrual_backend=backend,
        )
        t0 = time.perf_counter()
        dataset = run_study(cfg)
        seconds[backend] = time.perf_counter() - t0
        fp = _fingerprint(dataset)
        if reference is None:
            reference = fp
        elif fp != reference:
            raise AssertionError(
                f"backend={backend} changed the campaign: {fp} != {reference}"
            )
    return seconds


def measure_hotpath_samples(
    config: StudyConfig,
    *,
    min_repeats: int = 3,
    max_repeats: int = 8,
    target_rse: float = 0.05,
) -> tuple[list[HotpathPoint], list[float], dict[str, float]]:
    """Adaptive paired timings: (best-of table, speedup samples, best s).

    Each repeat times both backends back to back and contributes one
    speedup sample; repeats stop as soon as the sample's RSE reaches
    ``target_rse`` (with at least ``min_repeats``), or at ``max_repeats``.
    """
    if min_repeats < 1:
        raise ValueError(f"min_repeats must be positive, got {min_repeats}")
    max_repeats = max(max_repeats, min_repeats)
    best = {b: float("inf") for b in BACKENDS}
    samples: list[float] = []
    while len(samples) < max_repeats:
        seconds = _paired_run(config)
        for b in BACKENDS:
            best[b] = min(best[b], seconds[b])
        samples.append(seconds["scalar"] / seconds["vectorized"])
        if (
            len(samples) >= min_repeats
            and relative_standard_error(samples) <= target_rse
        ):
            break
    base = best["scalar"]
    points = [
        HotpathPoint(backend=b, seconds=best[b], speedup=base / best[b])
        for b in BACKENDS
    ]
    return points, samples, best


def measure_hotpath(config: StudyConfig, *, repeats: int = 1) -> list[HotpathPoint]:
    """Best-of-``repeats`` serial campaign time per accrual backend."""
    points, _, _ = measure_hotpath_samples(
        config, min_repeats=repeats, max_repeats=repeats
    )
    return points


def render_table(points: list[HotpathPoint], config: StudyConfig) -> str:
    lines = [
        f"# sp2 counter hot path — {config.n_days}-day campaign, "
        f"{config.n_nodes} nodes, seed {config.seed}",
        f"# {os.cpu_count()} cpu cores visible",
        f"{'backend':>12s} {'seconds':>10s} {'speedup':>8s}",
    ]
    for p in points:
        lines.append(f"{p.backend:>12s} {p.seconds:>10.2f} {p.speedup:>7.2f}x")
    return "\n".join(lines)


def test_hotpath_speedup(benchmark, capsys):
    """Scalar vs vectorized serial campaign (identity asserted).

    The hard regression gate lives in the script's ``--check`` mode
    against the recorded BENCH_hotpath.json distribution; here the
    vectorized path only has to not *lose* to scalar, which holds with
    wide margin on any machine."""
    days = min(int(os.environ.get("REPRO_BENCH_DAYS", "60")), 8)
    config = StudyConfig(seed=0, n_days=days, n_nodes=144, n_users=60)

    points = benchmark.pedantic(
        lambda: measure_hotpath(config, repeats=1), rounds=1, iterations=1
    )
    assert [p.backend for p in points] == list(BACKENDS)
    assert all(p.seconds > 0 for p in points)
    assert points[1].speedup > 1.0

    with capsys.disabled():
        print()
        print(render_table(points, config))


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="sp2 counter hot-path timing")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--days", type=int, default=12)
    p.add_argument("--nodes", type=int, default=144)
    p.add_argument("--users", type=int, default=60)
    p.add_argument(
        "--repeats", type=int, default=3, help="minimum paired repeats (default 3)"
    )
    p.add_argument(
        "--max-repeats",
        type=int,
        default=8,
        help="repeat cutoff when the speedup sample has not converged",
    )
    p.add_argument(
        "--target-rse",
        type=float,
        default=0.05,
        help="stop repeating once the speedup sample's relative standard "
        "error reaches this (default 0.05)",
    )
    p.add_argument("--out", type=str, default=None, help="write results JSON here")
    p.add_argument(
        "--check",
        type=str,
        default=None,
        help="recorded BENCH_hotpath.json to compare the measured speedup "
        "distribution against (CI overlap)",
    )
    p.add_argument(
        "--tolerance",
        type=float,
        default=0.8,
        help="scale the baseline CI floor: fail only when the measured CI "
        "sits entirely below tolerance × the baseline CI lower bound",
    )
    args = p.parse_args(argv)

    config = StudyConfig(
        seed=args.seed, n_days=args.days, n_nodes=args.nodes, n_users=args.users
    )
    points, samples, _ = measure_hotpath_samples(
        config,
        min_repeats=args.repeats,
        max_repeats=args.max_repeats,
        target_rse=args.target_rse,
    )
    est = mean_ci(samples)
    print(render_table(points, config))
    print(
        f"# speedup distribution: {est.mean:.3f} "
        f"[{est.ci_low:.3f}, {est.ci_high:.3f}] over n={est.n} repeats"
    )
    record = {
        "config": {
            "seed": args.seed,
            "n_days": args.days,
            "n_nodes": args.nodes,
            "n_users": args.users,
            "repeats": args.repeats,
            "max_repeats": args.max_repeats,
            "target_rse": args.target_rse,
        },
        "points": [
            {"backend": p.backend, "seconds": round(p.seconds, 4), "speedup": round(p.speedup, 3)}
            for p in points
        ],
        "speedup": round(est.mean, 3),
        "samples": [round(s, 4) for s in samples],
        "ci": {"low": round(est.ci_low, 3), "high": round(est.ci_high, 3), "n": est.n},
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if args.check:
        with open(args.check) as fh:
            recorded = json.load(fh)
        if "samples" in recorded:
            gate = ci_overlap_gate(
                samples,
                recorded["samples"],
                higher_is_better=True,
                tolerance=args.tolerance,
            )
            print(render_gate(gate, "vectorized speedup"))
            if not gate.passed:
                print(
                    "FAIL: vectorized hot path regressed below the recorded "
                    "speedup distribution",
                    file=sys.stderr,
                )
                return 1
        else:
            # Pre-statistical baseline: single-ratio fallback.
            floor = args.tolerance * recorded["speedup"]
            measured = record["speedup"]
            print(
                f"perf gate (legacy ratio): measured {measured:.2f}x vs recorded "
                f"{recorded['speedup']:.2f}x (floor {floor:.2f}x)"
            )
            if measured < floor:
                print(
                    f"FAIL: vectorized hot path regressed below {args.tolerance:.0%} "
                    "of the recorded speedup",
                    file=sys.stderr,
                )
                return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
