"""``sp2-trace`` — record and analyze span traces of a campaign.

Where ``sp2-ops`` shows the streaming counters, ``sp2-trace`` is the
drill-down: run a seeded campaign with the span tracer attached, save
the trace, open it in Perfetto, and attribute each job's wall time to
compute / switch wait / I/O / paging.

Examples::

    sp2-trace record --seed 42 --days 2 --nodes 16 --out trace.jsonl
    sp2-trace export trace.jsonl --format chrome --out trace.json
    sp2-trace critical-path trace.jsonl --job 7
    sp2-trace summary trace.jsonl
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.cli_common import (
    EXIT_OK,
    EXIT_OPERATIONAL,
    UsageError,
    add_campaign_args,
    entry_point,
    read_input,
    run_campaign,
    write_output,
)
from repro.tracing import (
    analyze_jobs,
    machine_attribution,
    read_jsonl,
    render_critical_path,
    render_trace_summary,
    spans_to_chrome,
    spans_to_jsonl,
    trace_summary,
    validate_chrome_trace,
)
from repro.tracing.span import PHASE_KINDS


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_record(args: argparse.Namespace) -> int:
    tracer = run_campaign(args, tracing=True).tracer

    if not tracer.spans:
        # Exit-code convention (CONTRIBUTING.md): a recording that
        # captured nothing is an operational failure, not a success.
        print(
            "error: campaign recorded zero spans — nothing to export "
            "(check --days)",
            file=sys.stderr,
        )
        return EXIT_OPERATIONAL
    out = write_output(args.out, spans_to_jsonl(tracer.spans))
    print(f"wrote {len(tracer.spans)} spans to {out}")
    if args.chrome is not None:
        chrome = write_output(
            args.chrome, json.dumps(spans_to_chrome(tracer.spans), sort_keys=True) + "\n"
        )
        print(f"wrote Chrome trace to {chrome} (open in https://ui.perfetto.dev)")
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    spans = read_input(args.trace, read_jsonl)
    if not spans:
        print(f"error: {args.trace} holds no spans", file=sys.stderr)
        return EXIT_OPERATIONAL
    if args.format == "chrome":
        obj = spans_to_chrome(spans)
        errors = validate_chrome_trace(obj)
        if errors:
            for err in errors[:10]:
                print(f"error: {err}", file=sys.stderr)
            return EXIT_OPERATIONAL
        out = write_output(args.out, json.dumps(obj, sort_keys=True) + "\n")
        print(
            f"wrote {len(obj['traceEvents'])} trace events to {out} "
            "(valid trace-event JSON; open in https://ui.perfetto.dev)"
        )
    else:  # jsonl re-serialization (normalizes ordering)
        out = write_output(args.out, spans_to_jsonl(spans))
        print(f"wrote {len(spans)} spans to {out}")
    return EXIT_OK


def cmd_critical_path(args: argparse.Namespace) -> int:
    paths = analyze_jobs(read_input(args.trace, read_jsonl))
    if not paths:
        print("error: trace holds no finished job span trees", file=sys.stderr)
        return EXIT_OPERATIONAL
    if args.job is not None:
        paths = [p for p in paths if p.job_id == args.job]
        if not paths:
            raise UsageError(f"no traced job with id {args.job}")
    for p in paths:
        print(render_critical_path(p))
        print()
    totals = machine_attribution(paths)
    grand = sum(totals.values())
    if grand > 0:
        parts = "  ".join(
            f"{kind} {totals[kind] / grand:.1%}" for kind in PHASE_KINDS
        )
        print(f"machine-wide attribution ({len(paths)} jobs, node-second weighted):")
        print(f"  {parts}")
    return EXIT_OK


def cmd_summary(args: argparse.Namespace) -> int:
    print(render_trace_summary(trace_summary(read_input(args.trace, read_jsonl))))
    return EXIT_OK


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sp2-trace",
        description="Span tracing for SP2 measurement campaigns.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    p_rec = sub.add_parser("record", help="run a seeded campaign with tracing on")
    add_campaign_args(p_rec, days=2, nodes=16, users=8, faults=False)
    p_rec.add_argument(
        "--out", type=pathlib.Path, default=pathlib.Path("trace.jsonl"),
        help="JSONL trace output path (default trace.jsonl)",
    )
    p_rec.add_argument(
        "--chrome", type=pathlib.Path, default=None,
        help="also write a Chrome trace-event JSON here",
    )
    p_rec.set_defaults(func=cmd_record)

    p_exp = sub.add_parser("export", help="convert a recorded JSONL trace")
    p_exp.add_argument("trace", type=pathlib.Path, help="recorded .jsonl trace")
    p_exp.add_argument(
        "--format", choices=("chrome", "jsonl"), default="chrome",
        help="output format (default chrome)",
    )
    p_exp.add_argument("--out", type=pathlib.Path, required=True, help="output path")
    p_exp.set_defaults(func=cmd_export)

    p_cp = sub.add_parser(
        "critical-path", help="per-job wall-time attribution + longest chain"
    )
    p_cp.add_argument("trace", type=pathlib.Path, help="recorded .jsonl trace")
    p_cp.add_argument("--job", type=int, default=None, help="only this job id")
    p_cp.set_defaults(func=cmd_critical_path)

    p_sum = sub.add_parser("summary", help="span counts and coverage of a trace")
    p_sum.add_argument("trace", type=pathlib.Path, help="recorded .jsonl trace")
    p_sum.set_defaults(func=cmd_summary)
    return p


@entry_point
def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
