"""``sp2-ops`` — the live operations view of a campaign.

Where ``sp2-study`` prints the paper's post-hoc artefacts, ``sp2-ops``
replays a campaign through the streaming telemetry subsystem and renders
what an operator console would have shown *while it ran*: the rolling
15-minute feed, the fired alerts, campaign-wide metric statistics, and
the finished-job rollups.

Since PR 7 it is also the *service*: ``sp2-ops serve`` keeps campaigns
resident in a :mod:`repro.ops` hub behind a TCP query API, ``sp2-ops
ask`` is the line client, and ``sp2-ops report`` renders one job's
performance page.

Examples::

    sp2-ops alerts --days 30 --seed 1          # what fired, when
    sp2-ops tail   --days 3  --seed 1          # the live feed, alerts inline
    sp2-ops query  --metric tlb.miss_rate --days 30 --plot
    sp2-ops jobs   --days 30 --top 10
    sp2-ops report --job 17 --days 30 --trace  # one job's performance page
    sp2-ops serve  --days 30 --port 7571       # campaign behind the query API
    sp2-ops ask query --port 7571 --campaign campaign --metric gflops.system
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro.cli_common import (
    EXIT_OK,
    EXIT_OPERATIONAL,
    EXIT_USAGE,
    UsageError,
    add_campaign_args,
    add_shard_args,
    entry_point,
    positive_int,
    read_input,
    run_campaign,
    shard_plan,
    study_config,
    usage_errors,
    write_output,
)
from repro.core.study import StudyDataset
from repro.telemetry.rules import render_alert, render_alerts
from repro.telemetry.service import METRIC_CATALOG
from repro.workload.traces import SECONDS_PER_DAY


def _add_campaign_args(p: argparse.ArgumentParser) -> None:
    add_campaign_args(p, days=3)
    add_shard_args(p, workers_help="replay the campaign through the sharded runner on N workers")


def _no_samples(dataset: StudyDataset) -> bool:
    """A campaign whose collector closed no interval watched nothing:
    exiting 0 would let a broken collector read as "all healthy"
    (exit-code convention: operational failure, 1)."""
    if dataset.collector.intervals():
        return False
    print(
        "error: campaign produced zero collector samples — nothing was "
        "monitored (check --days / the collector cadence)",
        file=sys.stderr,
    )
    return True


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_alerts(dataset: StudyDataset, args: argparse.Namespace) -> int:
    if _no_samples(dataset):
        return EXIT_OPERATIONAL
    t = dataset.telemetry
    alerts = t.alerts
    if args.rule:
        # "fault" alerts come straight from the injector, not from an
        # engine rule — still a filterable rule name here.
        known = {r.name for r in t.engine.rules} | {"fault"}
        if args.rule not in known:
            raise UsageError(f"unknown rule {args.rule!r}; available: {', '.join(sorted(known))}")
        alerts = [a for a in alerts if a.rule == args.rule]
    print(render_alerts(alerts))
    by_rule = ", ".join(f"{k}={v}" for k, v in sorted(t.alert_counts().items()))
    print(
        f"-- {len(alerts)} alert(s) shown, {len(t.alerts)} fired "
        f"({by_rule or 'none'}), {t.engine.suppressed} suppressed by cooldown, "
        f"{t.intervals_seen} intervals watched"
    )
    return EXIT_OK


#: Series rendered by ``tail`` (one column each).
TAIL_SERIES = (
    "gflops.system",
    "fxu.sys_user_ratio",
    "tlb.miss_rate",
    "nodes.reporting",
    "jobs.active",
)


def cmd_tail(dataset: StudyDataset, args: argparse.Namespace) -> int:
    from repro.ops.report import _fmt_time

    if _no_samples(dataset):
        return EXIT_OPERATIONAL
    t = dataset.telemetry
    times, gflops = t.store.window("gflops.system")
    _, ratio = t.store.window("fxu.sys_user_ratio")
    _, tlb = t.store.window("tlb.miss_rate")
    _, nodes = t.store.window("nodes.reporting")
    _, active = t.store.window("jobs.active")

    n = len(times)
    start = 0 if args.limit in (None, 0) else max(0, n - args.limit)
    alerts = iter(t.alerts)
    pending = next(alerts, None)
    # Fast-forward alerts that precede the visible window.
    while pending is not None and start > 0 and pending.time < times[start]:
        pending = next(alerts, None)
    print(
        f"{'TIME':<10s} {'GFLOPS':>7s} {'SYS/USR':>8s} {'TLB M/s':>8s} "
        f"{'NODES':>6s} {'JOBS':>5s}"
    )
    shown = 0
    for i in range(start, n):
        while pending is not None and pending.time <= times[i]:
            print("! " + render_alert(pending))
            pending = next(alerts, None)
        print(
            f"{_fmt_time(times[i]):<10s} {gflops[i]:7.2f} {ratio[i]:8.3f} "
            f"{tlb[i]:8.3f} {int(nodes[i]):6d} {int(active[i]):5d}"
        )
        shown += 1
    while pending is not None:
        print("! " + render_alert(pending))
        pending = next(alerts, None)
    # The ring caps every displayed series identically, but report the
    # worst case rather than trusting that: a silently truncated feed is
    # the one thing an operator console must never show as complete.
    dropped = max(
        (t.store.series(name).dropped for name in TAIL_SERIES if name in t.store),
        default=0,
    )
    note = f" (ring evicted {dropped} older samples)" if dropped else ""
    print(f"-- {shown} of {t.intervals_seen} intervals shown{note}")
    return EXIT_OK


def cmd_query(dataset: StudyDataset, args: argparse.Namespace) -> int:
    if _no_samples(dataset):
        return EXIT_OPERATIONAL
    t = dataset.telemetry
    if args.metric not in t.store.names():
        raise UsageError(
            f"unknown metric {args.metric!r}; available: {', '.join(t.store.names())} "
            "(see docs/TELEMETRY.md)"
        )
    t0 = args.day_from * SECONDS_PER_DAY if args.day_from is not None else None
    t1 = (args.day_to + 1) * SECONDS_PER_DAY if args.day_to is not None else None
    s = t.store.summary(args.metric)
    times, values = t.store.window(args.metric, t0, t1)
    print(f"metric   : {args.metric} — {METRIC_CATALOG.get(args.metric, '?')}")
    print(f"points   : {s.count} appended, {s.dropped} evicted, {len(times)} in window")
    print(f"last     : {s.last:.4g}   ewma {s.ewma:.4g}")
    print(f"range    : min {s.min:.4g}   max {s.max:.4g}")
    qtext = "   ".join(f"p{int(p * 100):d} {v:.4g}" for p, v in sorted(s.quantiles.items()))
    print(f"quantiles: {qtext}  (P² streaming estimates)")
    if s.dropped:
        print(
            f"warning  : ring evicted {s.dropped} older points — the window "
            "covers the retained tail only (aggregates still span the "
            "full campaign)"
        )
    if args.plot and len(values):
        from repro.util.asciiplot import ascii_series

        print()
        print(ascii_series(values, title=f"{args.metric} over the window"))
    return EXIT_OK


def cmd_jobs(dataset: StudyDataset, args: argparse.Namespace) -> int:
    from repro.ops.report import _fmt_time

    if _no_samples(dataset):
        return EXIT_OPERATIONAL
    t = dataset.telemetry
    rollups = t.rollups.for_user(args.user) if args.user is not None else list(
        t.rollups.finished
    )
    rollups.sort(key=lambda r: r.total_mflops, reverse=True)
    shown = rollups if args.top in (None, 0) else rollups[: args.top]
    print(
        f"{'JOB':>6s} {'APP':<20s} {'USER':>5s} {'NODES':>5s} {'WALL h':>7s} "
        f"{'MFLOPS':>9s} {'MF/NODE':>8s} {'SYS/USR':>8s}  FINALIZED"
    )
    for r in shown:
        rec = r.record
        print(
            f"{r.job_id:>6d} {r.app_name:<20.20s} {r.user:>5d} "
            f"{rec.nodes_requested:>5d} {rec.walltime_seconds / 3600:7.2f} "
            f"{r.total_mflops:9.1f} {r.mflops_per_node:8.2f} "
            f"{r.system_user_fxu_ratio:8.3f}  {_fmt_time(r.finalized_at)}"
        )
    suspects = t.rollups.paging_suspects()
    print(
        f"-- {len(shown)} of {len(t.rollups)} finished jobs shown, "
        f"{len(t.rollups.active)} still active, {len(suspects)} paging suspect(s)"
    )
    return EXIT_OK


# ----------------------------------------------------------------------
# The service verbs (PR 7): serve / report / ask
# ----------------------------------------------------------------------

def cmd_report(args: argparse.Namespace) -> int:
    """One job's performance page, from the campaign's own telemetry
    service, as the other one-shot verbs read it."""
    from repro.ops.report import job_critical_path, render_performance_report

    if args.trace and (args.workers or args.shard_days):
        raise UsageError("--trace needs the serial runner (drop --workers/--shard-days)")
    dataset = run_campaign(args, tracing=args.trace)
    if len(dataset.accounting) == 0:
        print(
            "error: campaign finished zero jobs — nothing to report on",
            file=sys.stderr,
        )
        return EXIT_OPERATIONAL
    rollups = dataset.telemetry.rollups
    rollup = rollups.get(args.job)
    if rollup is None:
        ids = sorted(r.job_id for r in dataset.accounting.records)
        raise UsageError(
            f"campaign 'campaign' has no finished job {args.job} ({len(rollups)} "
            f"finished) — finished job ids: {ids[0]}..{ids[-1]}"
        )
    spans = dataset.tracer.spans if dataset.tracer is not None else ()
    path = job_critical_path(spans, args.job)
    print(render_performance_report(rollup, rollups, campaign="campaign", path=path))
    return EXIT_OK


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:
        print("sp2-ops serve: interrupted", file=sys.stderr)
        return EXIT_OPERATIONAL


async def _serve(args: argparse.Namespace) -> int:
    from repro.ops import CampaignHub, OpsServer, ingest_fleet, ingest_study

    fleet_spec = None
    if args.fleet is not None:
        from repro.fleet.spec import preset

        with usage_errors():
            fleet_spec = preset(args.fleet)

    hub = CampaignHub(
        max_campaigns=args.max_campaigns,
        store_capacity=args.store_capacity,
    )
    server = await OpsServer.start(hub, host=args.host, port=args.port)
    print(
        f"sp2-ops service listening on {args.host}:{server.port}", file=sys.stderr
    )
    if args.port_file is not None:
        # Written after bind: waiting on this file is the race-free way
        # for scripts (and the CI smoke) to learn the ephemeral port.
        write_output(args.port_file, f"{server.port}\n")

    t0 = time.time()
    if fleet_spec is not None:
        fleet = await ingest_fleet(hub, args.name, fleet_spec, **shard_plan(args))
        jobs = sum(len(m.dataset.accounting) for m in fleet.members)
        if args.json is not None:
            from repro.fleet.analysis import fleet_summary

            document = {"spec": fleet_spec.to_dict(), **fleet_summary(fleet)}
            write_output(args.json, json.dumps(document, indent=2, sort_keys=True) + "\n")
            print(f"wrote {args.json}", file=sys.stderr)
    else:
        dataset = await ingest_study(
            hub, args.name, study_config(args), trace=args.trace, **shard_plan(args)
        )
        jobs = len(dataset.accounting)
        _write_dataset_json(args, dataset)
    print(
        f"campaign {args.name!r} resident after {time.time() - t0:.1f}s "
        f"({jobs} jobs); serving until a shutdown op arrives.",
        file=sys.stderr,
    )
    if jobs == 0:
        print("error: campaign finished zero jobs", file=sys.stderr)
        await server.close()
        return EXIT_OPERATIONAL
    await server.serve_until_shutdown()
    print("sp2-ops service: clean shutdown.", file=sys.stderr)
    return EXIT_OK


def _write_dataset_json(args: argparse.Namespace, dataset: StudyDataset) -> None:
    if args.json is None:
        return
    # Byte-identical to a detached ``sp2-study --json`` of the same
    # campaign: the ingest tap is a pure bus subscriber (CI diffs them).
    from repro.analysis.export import dataset_to_json

    write_output(args.json, dataset_to_json(dataset))
    print(f"wrote {args.json}", file=sys.stderr)


#: ask exit codes: a refused/failed request is usage (2) when the server
#: understood and rejected it, operational (1) when the service itself
#: is unreachable or broke.
_ASK_USAGE_ERRORS = frozenset(
    {"bad-request", "unknown-op", "unknown-campaign", "unknown-metric", "unknown-job"}
)


def _resolve_port(args: argparse.Namespace) -> int:
    if args.port is not None:
        return args.port
    if args.port_file is None:
        raise UsageError("ask needs --port or --port-file")
    return read_input(args.port_file, lambda path: int(pathlib.Path(path).read_text()))


def cmd_ask(args: argparse.Namespace) -> int:
    import asyncio

    return asyncio.run(_ask(args, _resolve_port(args)))


async def _ask(args: argparse.Namespace, port: int) -> int:
    import asyncio

    from repro.ops import OpsClient, OpsServiceError

    operands = {
        key: value
        for key, value in (
            ("campaign", args.campaign),
            ("metric", args.metric),
            ("job", args.job),
            ("member", args.member),
            ("since", args.since),
            ("limit", args.limit),
            ("last", args.last),
            ("points", args.points or None),
        )
        if value is not None
    }
    try:
        client = await OpsClient.connect(args.host, port)
    except OSError as exc:
        print(f"error: cannot reach {args.host}:{port}: {exc}", file=sys.stderr)
        return EXIT_OPERATIONAL
    async with client:
        try:
            response = await asyncio.wait_for(
                client.request(args.op, **operands), args.timeout
            )
        except OpsServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE if exc.code in _ASK_USAGE_ERRORS else EXIT_OPERATIONAL
        except (asyncio.TimeoutError, ConnectionError) as exc:
            print(f"error: service did not answer: {exc!r}", file=sys.stderr)
            return EXIT_OPERATIONAL
        if args.op == "report":
            print(response["report"])
        else:
            print(json.dumps(response, indent=2, sort_keys=True))
        if args.op == "subscribe" and args.watch:
            for _ in range(args.watch):
                try:
                    push = await client.next_push(args.timeout)
                except asyncio.TimeoutError:
                    print(
                        f"error: no alert push within {args.timeout:.0f}s",
                        file=sys.stderr,
                    )
                    return EXIT_OPERATIONAL
                print(json.dumps(push, indent=2, sort_keys=True))
    return EXIT_OK


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sp2-ops",
        description="Live operations view of an SP2 measurement campaign.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    p_alerts = sub.add_parser("alerts", help="alerts fired during the campaign")
    _add_campaign_args(p_alerts)
    p_alerts.add_argument("--rule", default=None, help="only this rule's alerts")
    p_alerts.set_defaults(func=cmd_alerts)

    p_tail = sub.add_parser("tail", help="the 15-minute live feed, alerts inline")
    _add_campaign_args(p_tail)
    p_tail.add_argument(
        "--limit", type=int, default=48, help="show the last N intervals (0 = all)"
    )
    p_tail.set_defaults(func=cmd_tail)

    p_query = sub.add_parser("query", help="campaign-wide statistics for one metric")
    _add_campaign_args(p_query)
    p_query.add_argument("--metric", required=True, help="metric name (see docs/TELEMETRY.md)")
    p_query.add_argument("--day-from", type=int, default=None, help="window start day")
    p_query.add_argument("--day-to", type=int, default=None, help="window end day (inclusive)")
    p_query.add_argument("--plot", action="store_true", help="ASCII-plot the window")
    p_query.set_defaults(func=cmd_query)

    p_jobs = sub.add_parser("jobs", help="finished-job rollups")
    _add_campaign_args(p_jobs)
    p_jobs.add_argument("--top", type=int, default=15, help="show the top N by Mflops (0 = all)")
    p_jobs.add_argument("--user", type=int, default=None, help="only this user's jobs")
    p_jobs.set_defaults(func=cmd_jobs)

    p_report = sub.add_parser(
        "report", help="one finished job's performance page (MPCDF-style)"
    )
    _add_campaign_args(p_report)
    p_report.add_argument("--job", type=int, required=True, help="finished job id")
    p_report.add_argument(
        "--trace",
        action="store_true",
        help="run traced to attribute wall time across phases",
    )
    p_report.set_defaults(func=cmd_report, standalone=True)

    p_serve = sub.add_parser(
        "serve", help="run a campaign into the resident hub and serve the query API"
    )
    _add_campaign_args(p_serve)
    p_serve.add_argument("--name", default="campaign", help="campaign name in the hub")
    p_serve.add_argument(
        "--fleet",
        default=None,
        metavar="PRESET",
        help="serve a fleet preset (federated fleet.* metrics) instead of "
        "a single campaign",
    )
    p_serve.add_argument(
        "--trace", action="store_true", help="record job spans for report attribution"
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument("--port", type=int, default=0, help="TCP port (0 = ephemeral)")
    p_serve.add_argument(
        "--port-file",
        default=None,
        metavar="PATH",
        help="write the bound port here once listening (for scripts)",
    )
    p_serve.add_argument(
        "--json",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="also export the campaign summary JSON (byte-identical to a "
        "detached sp2-study --json run)",
    )
    p_serve.add_argument(
        "--max-campaigns", type=positive_int, default=8, help="resident campaign cap"
    )
    p_serve.add_argument(
        "--store-capacity",
        type=positive_int,
        default=None,
        help="per-metric ring capacity",
    )
    p_serve.set_defaults(func=cmd_serve, standalone=True)

    p_ask = sub.add_parser("ask", help="one request against a running service")
    from repro.ops.protocol import REQUEST_OPS

    p_ask.add_argument("op", choices=REQUEST_OPS, help="protocol op to send")
    p_ask.add_argument("--host", default="127.0.0.1", help="service address")
    p_ask.add_argument("--port", type=int, default=None, help="service port")
    p_ask.add_argument(
        "--port-file", default=None, metavar="PATH", help="read the port from this file"
    )
    p_ask.add_argument("--campaign", default=None, help="campaign name")
    p_ask.add_argument("--metric", default=None, help="metric name (query)")
    p_ask.add_argument("--job", type=int, default=None, help="job id (report)")
    p_ask.add_argument("--member", default=None, help="fleet member (jobs/report)")
    p_ask.add_argument("--since", type=int, default=None, help="alert cursor (alerts)")
    p_ask.add_argument("--limit", type=int, default=None, help="row cap (jobs)")
    p_ask.add_argument("--last", type=int, default=None, help="last N points (query)")
    p_ask.add_argument(
        "--points", action="store_true", help="include raw points (query)"
    )
    p_ask.add_argument(
        "--watch",
        type=int,
        default=0,
        metavar="N",
        help="after subscribe, print N alert pushes before exiting",
    )
    p_ask.add_argument(
        "--timeout", type=float, default=30.0, help="per-request timeout seconds"
    )
    p_ask.set_defaults(func=cmd_ask, standalone=True)
    return p


@entry_point
def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "standalone", False):
        # serve/report/ask drive their own campaign (or none at all).
        return args.func(args)
    return args.func(run_campaign(args), args)


if __name__ == "__main__":
    raise SystemExit(main())
