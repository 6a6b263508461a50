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
from repro.cli_common import (
    EXIT_OK,
    EXIT_OPERATIONAL,
    UsageError,
    add_campaign_args,
    add_shard_args,
    entry_point,
    positive_int,
    run_campaign,
    write_output,
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sp2-study",
        description="Replay the NAS SP2 RS2HPM measurement campaign on the simulator.",
    )
    add_campaign_args(p, days=30)
    add_shard_args(
        p,
        workers_help="run the campaign as day-range shards (15 days unless "
        "--shard-days) on N worker processes; output never depends on N",
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
        type=positive_int,
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


@entry_point
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
        raise UsageError("--resume requires --checkpoint-dir")
    dataset = run_campaign(
        args,
        checkpoint_dir=str(args.checkpoint_dir) if args.checkpoint_dir is not None else None,
        resume=args.resume,
        shard_attempts=args.shard_attempts,
    )

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
        return EXIT_OPERATIONAL

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
        for fig in figures:
            path = write_output(args.csv_dir / f"{fig.name}.csv", fig.csv())
            print(f"wrote {path}", file=sys.stderr)

    if args.json is not None:
        from repro.analysis.export import dataset_to_json

        write_output(args.json, dataset_to_json(dataset))
        print(f"wrote {args.json}", file=sys.stderr)

    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
