"""``sp2-study`` — run a campaign and print the paper's artefacts.

Examples::

    sp2-study --days 30 --seed 1                  # headlines only
    sp2-study --days 270 --tables --figures       # the full paper
    sp2-study --days 30 --csv-dir out/            # dump figure CSVs
    sp2-study repeat --target-rse 0.02            # error bars on everything
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from repro.analysis import (
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    paper_comparison,
    table1,
    table2,
    table3,
    table4,
)
from repro.core.study import StudyConfig, cli_shard_days, run_study
from repro.faults.profile import FaultProfile


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sp2-study",
        description="Replay the NAS SP2 RS2HPM measurement campaign on the simulator.",
    )
    p.add_argument("--seed", type=int, default=0, help="campaign seed (default 0)")
    p.add_argument("--days", type=int, default=30, help="campaign length in days")
    p.add_argument("--nodes", type=int, default=144, help="cluster size")
    p.add_argument("--users", type=int, default=60, help="user population size")
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="run the campaign as day-range shards on N worker processes "
        "(output depends on the shard plan, never on N)",
    )
    p.add_argument(
        "--shard-days",
        type=int,
        default=None,
        metavar="K",
        help="days per shard for --workers (default 15); implies sharded "
        "execution even with one worker",
    )
    p.add_argument(
        "--fault-profile",
        default=None,
        metavar="NAME",
        help="inject faults from a named profile (none, mild, pathological); "
        "omitted = healthy campaign, byte-identical to earlier releases",
    )
    p.add_argument(
        "--checkpoint-dir",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="persist per-shard checkpoints here (crash tolerance; implies "
        "sharded execution)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="load finished shards from --checkpoint-dir instead of "
        "recomputing them (resumed output is byte-identical to an "
        "uninterrupted run)",
    )
    p.add_argument(
        "--shard-attempts",
        type=int,
        default=3,
        metavar="N",
        help="retry crashed shard workers up to N attempts total (default 3)",
    )
    p.add_argument("--tables", action="store_true", help="print Tables 1-4")
    p.add_argument("--figures", action="store_true", help="print ASCII Figures 1-5")
    p.add_argument(
        "--csv-dir", type=pathlib.Path, default=None, help="write figure CSVs here"
    )
    p.add_argument(
        "--json", type=pathlib.Path, default=None, help="write a campaign summary JSON here"
    )
    return p


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "repeat":
        # The statistical campaign verb: multi-seed adaptive repetition
        # with error bars on every headline (docs/STATS.md).  Plain
        # `sp2-study` flags keep their historical single-campaign
        # behaviour byte-for-byte.
        from repro.stats.cli import repeat_main

        return repeat_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.resume and args.checkpoint_dir is None:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    try:
        config = StudyConfig(
            seed=args.seed,
            n_days=args.days,
            n_nodes=args.nodes,
            n_users=args.users,
            fault_profile=FaultProfile.resolve(args.fault_profile),
        )
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    shard_days = cli_shard_days(
        args.shard_days, workers=args.workers, checkpoint_dir=args.checkpoint_dir
    )
    t0 = time.time()
    how = f", {args.workers or 1} workers" if shard_days is not None else ""
    faulty = f", faults={args.fault_profile}" if args.fault_profile else ""
    print(
        f"Running {args.days}-day campaign on {args.nodes} nodes "
        f"(seed {args.seed}, {args.users} users{how}{faulty})...",
        file=sys.stderr,
    )
    try:
        dataset = run_study(
            config,
            shard_days=shard_days,
            workers=args.workers or 1,
            checkpoint_dir=(
                str(args.checkpoint_dir) if args.checkpoint_dir is not None else None
            ),
            resume=args.resume,
            shard_attempts=args.shard_attempts,
        )
    except Exception as err:  # noqa: BLE001 - operator-facing boundary
        from repro.parallel.runner import ShardExecutionError

        if isinstance(err, ShardExecutionError):
            print(f"error: {err}", file=sys.stderr)
            if args.checkpoint_dir is not None:
                print(
                    f"hint: rerun with --checkpoint-dir {args.checkpoint_dir} "
                    "--resume to pick up from the completed shards",
                    file=sys.stderr,
                )
            return 1
        raise
    print(f"Campaign done in {time.time() - t0:.1f}s.", file=sys.stderr)

    print(paper_comparison(dataset))

    if dataset.faults is not None:
        from repro.faults.report import availability_table

        print()
        print(availability_table(dataset.faults).render())

    if len(dataset.accounting) == 0:
        # A campaign with no finished jobs measured nothing; exiting 0
        # would let an empty run masquerade as a successful study.
        print(
            "error: campaign finished zero jobs — nothing was measured "
            "(check --days/--users)",
            file=sys.stderr,
        )
        return 1

    if args.tables:
        print()
        print(table1().render())
        for gen in (table2, table3, table4):
            print()
            try:
                print(gen(dataset).render())
            except ValueError as err:
                print(f"({gen.__name__} unavailable: {err})")

    figures = [
        figure1(dataset),
        figure2(dataset),
        figure3(dataset),
        figure4(dataset),
        figure5(dataset),
    ]
    if args.figures:
        for fig in figures:
            print()
            print(fig.render())

    if args.csv_dir is not None:
        args.csv_dir.mkdir(parents=True, exist_ok=True)
        for fig in figures:
            path = args.csv_dir / f"{fig.name}.csv"
            path.write_text(fig.csv())
            print(f"wrote {path}", file=sys.stderr)

    if args.json is not None:
        from repro.analysis.export import dataset_to_json

        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(dataset_to_json(dataset))
        print(f"wrote {args.json}", file=sys.stderr)

    return 0


if __name__ == "__main__":
    raise SystemExit(main())
