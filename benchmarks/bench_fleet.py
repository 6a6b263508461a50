"""Experiment: federation cost — fleet wall time vs member count.

Times ``run_fleet`` on fleets of 1..N identical 32-node members at a
fixed per-fleet demand model, and reports how wall time grows with the
member count.  The interesting number is the *overhead factor*: measured
time ratio over the capacity ratio.  Routing and per-member campaign
setup are the only federation costs, so the factor should stay near 1 —
a fleet of three machines should cost about three machines, not more.

Entry points:

* ``pytest benchmarks/ --benchmark-only`` runs a short scaling check;
* ``python benchmarks/bench_fleet.py --out benchmarks/BENCH_fleet.json``
  records the reference numbers with per-repeat overhead-factor samples;
  ``--check`` is the statistical gate (docs/STATS.md): it fails only
  when the measured factor's confidence interval sits entirely above
  the tolerance-scaled baseline CI.  A baseline without ``samples`` is
  refused (exit 2).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

from repro.fleet.runner import run_fleet
from repro.fleet.spec import FleetSpec, MemberSpec
from repro.stats.estimators import mean_ci
from repro.stats.gate import ci_overlap_gate, render_gate


@dataclass(frozen=True)
class FleetPoint:
    """One row of the member-count scaling table."""

    n_members: int
    total_nodes: int
    submissions: int
    jobs: int
    seconds: float


def _spec(n_members: int, *, seed: int, n_days: int, n_users: int) -> FleetSpec:
    return FleetSpec(
        name=f"bench{n_members}",
        members=tuple(
            MemberSpec(name=f"c{i}", n_nodes=32) for i in range(n_members)
        ),
        seed=seed,
        n_days=n_days,
        n_users=n_users,
    )


def measure_fleet_scaling(
    member_counts: list[int],
    *,
    seed: int = 0,
    n_days: int = 4,
    n_users: int = 16,
    repeats: int = 1,
) -> tuple[list[FleetPoint], list[float]]:
    """(best-of-``repeats`` points, per-repeat overhead-factor samples).

    Every repeat sweeps the whole member-count ladder once, so each
    contributes one end-to-end overhead-factor observation — the sample
    the statistical gate consumes.
    """
    seconds = {n: [] for n in member_counts}
    meta: dict[int, FleetPoint] = {}
    for _ in range(repeats):
        for n in member_counts:
            spec = _spec(n, seed=seed, n_days=n_days, n_users=n_users)
            t0 = time.perf_counter()
            fleet = run_fleet(spec)
            seconds[n].append(time.perf_counter() - t0)
            meta[n] = FleetPoint(
                n_members=n,
                total_nodes=spec.total_nodes,
                submissions=fleet.trace.total_submissions,
                jobs=sum(len(m.dataset.accounting) for m in fleet.members),
                seconds=0.0,
            )
    points = [
        FleetPoint(
            n_members=n,
            total_nodes=meta[n].total_nodes,
            submissions=meta[n].submissions,
            jobs=meta[n].jobs,
            seconds=min(seconds[n]),
        )
        for n in member_counts
    ]
    base_n, top_n = member_counts[0], member_counts[-1]
    capacity_ratio = meta[top_n].total_nodes / meta[base_n].total_nodes
    samples = [
        (seconds[top_n][r] / seconds[base_n][r]) / capacity_ratio
        for r in range(repeats)
    ]
    return points, samples


def overhead_factor(points: list[FleetPoint]) -> float:
    """Largest fleet's time ratio over its capacity ratio (1.0 = a
    fleet costs exactly its aggregate capacity)."""
    base, top = points[0], points[-1]
    capacity_ratio = top.total_nodes / base.total_nodes
    return (top.seconds / base.seconds) / capacity_ratio


def render_table(points: list[FleetPoint], *, n_days: int, seed: int) -> str:
    lines = [
        f"# sp2 fleet federation — {n_days}-day campaigns, 32-node members, "
        f"seed {seed}",
        f"{'members':>8s} {'nodes':>6s} {'subs':>6s} {'jobs':>6s} "
        f"{'seconds':>9s} {'s/member':>9s}",
    ]
    for p in points:
        lines.append(
            f"{p.n_members:>8d} {p.total_nodes:>6d} {p.submissions:>6d} "
            f"{p.jobs:>6d} {p.seconds:>9.2f} {p.seconds / p.n_members:>9.2f}"
        )
    lines.append(f"# overhead factor (largest vs single): {overhead_factor(points):.2f}")
    return "\n".join(lines)


def test_fleet_scaling(benchmark, capsys):
    """Fleet cost grows with capacity, not combinatorially.

    The hard gate lives in the script's ``--check`` mode; here a
    3-member fleet only has to stay under 3x the *ideal* capacity
    scaling — generous enough for any CI machine, tight enough to catch
    a quadratic routing or merge path."""
    days = min(int(os.environ.get("REPRO_BENCH_DAYS", "60")), 3)
    points, _ = benchmark.pedantic(
        lambda: measure_fleet_scaling([1, 2, 3], n_days=days, n_users=12),
        rounds=1,
        iterations=1,
    )
    assert [p.n_members for p in points] == [1, 2, 3]
    assert all(p.seconds > 0 and p.jobs > 0 for p in points)
    assert overhead_factor(points) < 3.0

    with capsys.disabled():
        print()
        print(render_table(points, n_days=days, seed=0))


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="sp2 fleet federation scaling")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--days", type=int, default=4)
    p.add_argument("--users", type=int, default=16)
    p.add_argument(
        "--members",
        type=int,
        nargs="+",
        default=[1, 2, 3, 4],
        help="member counts to time",
    )
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--out", type=str, default=None, help="write results JSON here")
    p.add_argument(
        "--check",
        type=str,
        default=None,
        help="recorded BENCH_fleet.json to compare the overhead factor against",
    )
    p.add_argument(
        "--tolerance",
        type=float,
        default=1.5,
        help="scale the baseline CI ceiling: fail only when the measured "
        "factor's CI sits entirely above tolerance × the baseline CI "
        "upper bound",
    )
    args = p.parse_args(argv)
    recorded = None
    if args.check:
        with open(args.check) as fh:
            recorded = json.load(fh)
        if "samples" not in recorded:
            print(f"error: baseline {args.check} has no 'samples'", file=sys.stderr)
            return 2

    points, samples = measure_fleet_scaling(
        args.members,
        seed=args.seed,
        n_days=args.days,
        n_users=args.users,
        repeats=args.repeats,
    )
    est = mean_ci(samples)
    print(render_table(points, n_days=args.days, seed=args.seed))
    print(
        f"# factor distribution: {est.mean:.3f} "
        f"[{est.ci_low:.3f}, {est.ci_high:.3f}] over n={est.n} repeats"
    )
    record = {
        "config": {
            "seed": args.seed,
            "n_days": args.days,
            "n_users": args.users,
            "members": args.members,
            "repeats": args.repeats,
        },
        "points": [
            {
                "n_members": p.n_members,
                "total_nodes": p.total_nodes,
                "submissions": p.submissions,
                "jobs": p.jobs,
                "seconds": round(p.seconds, 4),
            }
            for p in points
        ],
        "overhead_factor": round(est.mean, 3),
        "samples": [round(s, 4) for s in samples],
        "ci": {"low": round(est.ci_low, 3), "high": round(est.ci_high, 3), "n": est.n},
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if recorded is not None:
        gate = ci_overlap_gate(
            samples,
            recorded["samples"],
            higher_is_better=False,
            tolerance=args.tolerance,
        )
        print(render_gate(gate, "fleet overhead factor"))
        if not gate.passed:
            print(
                "FAIL: fleet federation overhead regressed past the "
                "recorded factor distribution",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
