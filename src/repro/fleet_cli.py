"""``sp2-fleet`` — federated campaigns across many SP2-class machines.

Where ``sp2-study`` measures the paper's one 144-node machine,
``sp2-fleet`` runs a whole *fleet* of heterogeneous centers against a
shared user population and compares the workloads XDMoD-style: per
-center utilization, job-size distribution and application mix.

Examples::

    sp2-fleet run --preset demo2 --days 5            # quick 2-center fleet
    sp2-fleet run --preset demo3 --json              # machine-readable block
    sp2-fleet run --spec fleet.json --out run.json   # custom fleet, saved
    sp2-fleet report run.json                        # re-render saved tables
    sp2-fleet compare baseline.json contender.json   # center-by-center diff
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from repro.cli_common import (
    EXIT_OK,
    EXIT_OPERATIONAL,
    add_shard_args,
    entry_point,
    read_input,
    shard_plan,
    usage_errors,
    write_output,
)
from repro.fleet.analysis import (
    compare_fleets,
    fleet_summary,
    read_fleet_document,
    render_fleet_report,
)
from repro.fleet.runner import run_fleet
from repro.fleet.spec import PRESETS, ROUTING_POLICIES, FleetSpec


def _build_spec(args: argparse.Namespace) -> FleetSpec:
    overrides = {
        "n_days": args.days,
        "seed": args.seed,
        "n_users": args.users,
        "routing": args.routing,
    }
    applied = {k: v for k, v in overrides.items() if v is not None}
    with usage_errors():
        spec = (
            PRESETS[args.preset] if args.spec is None else FleetSpec.from_dict(read_input(args.spec))
        )
        return dataclasses.replace(spec, **applied) if applied else spec


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_run(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    t0 = time.time()
    print(
        f"Running fleet {spec.name!r}: {len(spec.members)} centers, "
        f"{spec.total_nodes} nodes, {spec.n_days} days, seed {spec.seed}...",
        file=sys.stderr,
    )
    fleet = run_fleet(spec, **shard_plan(args))
    print(f"Fleet campaign done in {time.time() - t0:.1f}s.", file=sys.stderr)
    document = {"spec": spec.to_dict(), **fleet_summary(fleet)}
    if args.out is not None:
        write_output(args.out, json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"Saved fleet summary to {args.out}.", file=sys.stderr)
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(render_fleet_report(document))
    # Exit-code convention (CONTRIBUTING.md): a campaign that measured
    # nothing is an operational failure, not a success — outputs above
    # are still written so the empty run can be inspected.
    total_jobs = sum(len(m.dataset.accounting) for m in fleet.members)
    if total_jobs == 0:
        print(
            "error: fleet campaign finished zero jobs — nothing was measured",
            file=sys.stderr,
        )
        return EXIT_OPERATIONAL
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    print(render_fleet_report(read_input(args.summary, read_fleet_document)))
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    a, b = (read_input(path, read_fleet_document) for path in (args.a, args.b))
    print(compare_fleets(a, b, label_a=args.a, label_b=args.b).render())
    return EXIT_OK


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sp2-fleet",
        description="Federated SP2 measurement campaigns across many machines.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a fleet campaign and report")
    source = p_run.add_mutually_exclusive_group()
    source.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        default="demo2",
        help="built-in fleet definition (default demo2)",
    )
    source.add_argument(
        "--spec", metavar="FILE", default=None, help="fleet definition JSON file"
    )
    p_run.add_argument("--days", type=int, default=None, help="override n_days")
    p_run.add_argument("--seed", type=int, default=None, help="override the fleet seed")
    p_run.add_argument("--users", type=int, default=None, help="override n_users")
    p_run.add_argument(
        "--routing",
        choices=ROUTING_POLICIES,
        default=None,
        help="override the routing policy",
    )
    add_shard_args(
        p_run, workers_help="run each member campaign through the sharded runner on N workers"
    )
    p_run.add_argument(
        "--json", action="store_true", help="print the fleet block as JSON"
    )
    p_run.add_argument(
        "--out", metavar="FILE", default=None, help="also save the JSON document"
    )
    p_run.set_defaults(func=cmd_run)

    p_report = sub.add_parser("report", help="render tables from a saved run")
    p_report.add_argument("summary", help="JSON file from 'sp2-fleet run --out'")
    p_report.set_defaults(func=cmd_report)

    p_cmp = sub.add_parser("compare", help="center-by-center diff of two runs")
    p_cmp.add_argument("a", help="baseline JSON file")
    p_cmp.add_argument("b", help="contender JSON file")
    p_cmp.set_defaults(func=cmd_compare)
    return p


@entry_point
def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
