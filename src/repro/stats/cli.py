"""``sp2-study repeat`` — the adaptive-stopping statistical campaign.

Examples::

    sp2-study repeat --target-rse 0.02                  # run until converged
    sp2-study repeat --target-ci 0.05 --max-repeats 32  # CI half-width rule
    sp2-study repeat --seeds 0,1,2,3 --json out.json    # fixed seed list
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
    UsageError,
    add_campaign_args,
    add_shard_args,
    positive_int,
    study_config,
    write_output,
)
from repro.stats.annotate import (
    format_estimate,
    repeat_headline_block,
    repeat_summary,
    repeat_tables,
)
from repro.stats.campaign import ConfigRepeatSpec, make_config_batch_runner
from repro.stats.metrics import DEFAULT_TARGET_METRIC
from repro.stats.repeater import Repeater
from repro.stats.stopping import HalfWidthRule, KSStableRule, RSERule


def build_repeat_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sp2-study repeat",
        description="Repeat the campaign across seeds until the target "
        "statistic converges; report every headline and table with a "
        "confidence interval.",
    )
    add_campaign_args(p, days=30, seed_flag="--seed0")
    add_shard_args(
        p,
        workers_help="run each batch's seeds across N worker processes "
        "(samples are per-seed pure functions: output never depends on N)",
    )
    p.add_argument(
        "--seeds",
        type=str,
        default=None,
        metavar="LIST",
        help="comma-separated explicit seed list; runs all of them (no "
        "adaptive stopping) and is invariant to --batch and --workers",
    )
    p.add_argument(
        "--batch", type=positive_int, default=8, metavar="N",
        help="repeats per batch between rule evaluations (default 8)",
    )
    p.add_argument(
        "--max-repeats", type=positive_int, default=256, metavar="N",
        help="unconditional repeat cutoff (default 256)",
    )
    p.add_argument(
        "--target-rse", type=float, default=None, metavar="X",
        help="stop when the relative standard error of the target metric "
        "drops to X (e.g. 0.02)",
    )
    p.add_argument(
        "--target-ci", type=float, default=None, metavar="X",
        help="stop when the relative 95%% CI half-width drops to X",
    )
    p.add_argument(
        "--ks-threshold", type=float, default=None, metavar="X",
        help="stop when the newest batch's KS distance to the prior "
        "sample drops to X",
    )
    p.add_argument(
        "--metric", type=str, default=DEFAULT_TARGET_METRIC, metavar="NAME",
        help=f"target statistic for the stopping rules (default {DEFAULT_TARGET_METRIC})",
    )
    p.add_argument(
        "--confidence", type=float, default=0.95, metavar="C",
        help="confidence level for every reported interval (default 0.95)",
    )
    p.add_argument("--tables", action="store_true", help="print Tables 1-4 with CIs")
    p.add_argument(
        "--json", type=pathlib.Path, default=None,
        help="write the annotated summary JSON here",
    )
    return p


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as err:
        raise UsageError(f"bad --seeds list {text!r}: {err}") from None
    if any(seed < 0 for seed in seeds):
        raise UsageError(f"bad --seeds list {text!r}: seeds must not be negative")
    return seeds


def repeat_main(argv: list[str] | None = None) -> int:
    args = build_repeat_parser().parse_args(argv)

    rules = []
    if args.target_rse is not None:
        rules.append(RSERule(args.target_rse))
    if args.target_ci is not None:
        rules.append(HalfWidthRule(args.target_ci, relative=True,
                                   confidence=args.confidence))
    if args.ks_threshold is not None:
        rules.append(KSStableRule(args.ks_threshold))
    seeds = _parse_seeds(args.seeds) if args.seeds is not None else None
    if not rules and seeds is None:
        # No convergence criterion and no fixed list: default to the RSE
        # rule so a bare `sp2-study repeat` still stops on convergence.
        rules.append(RSERule(0.05))

    config = study_config(args)
    unit = ConfigRepeatSpec(config=config, shard_days=args.shard_days)
    rule_names = ", ".join(r.describe() for r in rules) or "none"
    how = (
        f"fixed seeds {seeds}" if seeds is not None
        else f"adaptive from seed {args.seed}, batch {args.batch}, "
        f"max {args.max_repeats}, rules [{rule_names}]"
    )
    print(
        f"Repeating {args.days}-day campaigns on {args.nodes} nodes "
        f"({how}, target {args.metric})...",
        file=sys.stderr,
    )

    t0 = time.time()

    def narrate(n: int, est) -> None:
        if est is not None:
            print(
                f"  batch done: n={n}, {args.metric} = "
                f"{format_estimate(est)} (rse {est.rse:.4f})",
                file=sys.stderr,
            )

    repeater = Repeater(
        run_one=unit.run_one,
        rules=rules,
        max_repeats=args.max_repeats,
        batch_size=args.batch,
        target_metric=args.metric,
        confidence=args.confidence,
        batch_runner=make_config_batch_runner(unit, workers=args.workers or 1),
        on_batch=narrate,
    )
    try:
        result = repeater.run(seed0=args.seed, seeds=seeds)
    except KeyError as err:
        raise UsageError(str(err)) from None
    print(
        f"Stopped after {result.n} campaigns in {time.time() - t0:.1f}s "
        f"(rule={result.stopped.rule}: {result.stopped.detail}).",
        file=sys.stderr,
    )

    if result.samples.get("campaign.jobs_accounted") and not any(
        result.samples["campaign.jobs_accounted"]
    ):
        print(
            "error: every repeated campaign finished zero jobs — nothing "
            "was measured (check --days/--users)",
            file=sys.stderr,
        )
        return EXIT_OPERATIONAL

    print(repeat_headline_block(result))
    est = result.estimate(args.metric)
    shape = result.shape()
    print()
    print(
        f"target {args.metric}: {format_estimate(est, result.stopped.rule)} "
        f"(rse {est.rse:.4f}, distribution {shape.label})"
    )

    if args.tables:
        for table in repeat_tables(result):
            print()
            print(table.render())

    if args.json is not None:
        block = {
            "n_days": args.days,
            "n_nodes": args.nodes,
            "n_users": args.users,
            "fault_profile": args.fault_profile,
            "accrual_backend": config.accrual_backend,
            "shard_days": args.shard_days,
        }
        payload = repeat_summary(result, config=block)
        write_output(args.json, json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}", file=sys.stderr)
    return EXIT_OK
