"""What the ``sp2-*`` commands share: the campaign flags, the
:class:`StudyConfig` and shard plan built from them, the campaign run,
input files, and the exit-code contract (CONTRIBUTING.md).

Exit codes: 0 success; 1 operational failure (the command ran but
measured, served or captured nothing, or shard or seed retries ran out);
2 usage error (bad flags, an unreadable input, unknown names).  Every
failure a command foresees ends in one ``error:`` line on stderr;
:func:`entry_point` maps them onto the codes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import pathlib
import sys
import time
from typing import Any, Callable

from repro.core.study import StudyConfig, StudyDataset, resolve_config, run_study

EXIT_OK, EXIT_OPERATIONAL, EXIT_USAGE = 0, 1, 2


class UsageError(Exception):
    """A request the command refuses: one ``error:`` line, exit 2."""


@contextlib.contextmanager
def usage_errors():
    """A ``ValueError`` from the block is bad input: wrap only the code
    that reads a request, never a run (a fault inside a run is a bug)."""
    try:
        yield
    except ValueError as err:
        raise UsageError(str(err)) from None


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def add_campaign_args(
    p: argparse.ArgumentParser,
    *,
    days: int,
    nodes: int = 144,
    users: int = 60,
    seed_flag: str = "--seed",
    faults: bool = True,
) -> None:
    """The campaign-shape flags at the command's own defaults, and
    ``--fault-profile`` unless ``faults`` is false.  :class:`StudyConfig`
    checks their values.  A command without the fault or shard flags
    runs healthy and serial."""
    p.set_defaults(fault_profile=None, workers=None, shard_days=None)
    p.add_argument(seed_flag, dest="seed", type=int, default=0,
                   help="seed of the (first) campaign (default 0)")
    p.add_argument("--days", type=int, default=days,
                   help=f"campaign length in days (default {days})")
    p.add_argument("--nodes", type=int, default=nodes,
                   help=f"cluster size (default {nodes})")
    p.add_argument("--users", type=int, default=users,
                   help=f"user population size (default {users})")
    if faults:
        p.add_argument(
            "--fault-profile", default=None, metavar="NAME",
            help="inject faults from a named profile (none, mild, "
            "pathological); omitted = healthy campaign",
        )


def add_shard_args(p: argparse.ArgumentParser, *, workers_help: str) -> None:
    p.add_argument("--workers", type=positive_int, default=None, metavar="N",
                   help=workers_help)
    p.add_argument(
        "--shard-days", type=positive_int, default=None, metavar="K",
        help="run each campaign as K-day shards; the shard plan is part of "
        "the experiment (it shapes the output), the worker count is not",
    )


def study_config(args: argparse.Namespace) -> StudyConfig:
    """The one :class:`StudyConfig` the campaign flags describe."""
    with usage_errors():
        return resolve_config(
            {
                "seed": args.seed,
                "n_days": args.days,
                "n_nodes": args.nodes,
                "n_users": args.users,
                "fault_profile": args.fault_profile,
            }
        )


def shard_plan(args: argparse.Namespace, checkpoint_dir: object = None) -> dict:
    """``run_study``'s shard keywords for the flags: ``--workers`` or a
    checkpoint directory without ``--shard-days`` runs the default plan
    (:data:`repro.parallel.plan.DEFAULT_SHARD_DAYS`)."""
    shard_days = args.shard_days
    if shard_days is None and (args.workers is not None or checkpoint_dir is not None):
        from repro.parallel.plan import DEFAULT_SHARD_DAYS

        shard_days = DEFAULT_SHARD_DAYS
    return {"shard_days": shard_days, "workers": args.workers or 1}


def run_campaign(
    args: argparse.Namespace, *, tracing: bool = False, **options: Any
) -> StudyDataset:
    """Run the campaign the flags describe between a start and a "done
    in" line on stderr; ``options`` (checkpoint keywords, a
    ``bus_hook``) go to :func:`run_study`."""
    config = study_config(args)
    plan = shard_plan(args, options.get("checkpoint_dir"))
    how = f", {plan['workers']} workers" if plan["shard_days"] is not None else ""
    faulty = f", faults={args.fault_profile}" if args.fault_profile else ""
    traced = ", traced" if tracing else ""
    print(
        f"Running {args.days}-day campaign on {args.nodes} nodes "
        f"(seed {args.seed}, {args.users} users{how}{faulty}{traced})...",
        file=sys.stderr,
    )
    t0 = time.time()
    dataset = run_study(config, tracing=tracing, **plan, **options)
    print(f"Campaign done in {time.time() - t0:.1f}s.", file=sys.stderr)
    return dataset


def write_output(path: str | pathlib.Path, text: str) -> pathlib.Path:
    """Write ``text`` to ``path``, creating its directory first."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _read_json(path: str) -> Any:
    return json.loads(pathlib.Path(path).read_text())


def read_input(path: str | pathlib.Path, read: Callable[[str], Any] = _read_json) -> Any:
    """``read(path)`` (JSON by default); a missing, unreadable or
    malformed input file is a usage error, and so is one nested deeper
    than the decoder can recurse."""
    try:
        return read(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot read {str(path)!r}: {exc}") from None
    except RecursionError:
        raise UsageError(f"cannot read {str(path)!r}: nested too deeply") from None


def entry_point(command: Callable[[list[str] | None], int]) -> Callable[..., int]:
    """``command`` as a console script's ``main``, its failures as exit codes.

    A :class:`UsageError` is one ``error:`` line and exit 2.  Shard or
    seed retries that ran out are one line and exit 1, with a
    ``--resume`` hint when the run kept checkpoints.  A closed stdout
    (``| head``) exits 0.  argparse's own exits pass through, and so
    does every other exception: a ``ValueError`` inside a run is a
    fault, not bad usage.
    """

    @functools.wraps(command)
    def main(argv: list[str] | None = None) -> int:
        try:
            try:
                return command(argv)
            finally:
                sys.stdout.flush()  # a closed pipe shows here, not at exit
        except UsageError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_USAGE
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EXIT_OK
        except RuntimeError as err:
            # Only a loaded task runner can have raised its errors, so
            # this never imports it (``--help`` stays cheap).
            runner = sys.modules.get("repro.parallel.runner")
            if runner is None or not isinstance(
                err, (runner.ShardExecutionError, runner.WorkerCrashError)
            ):
                raise
            print(f"error: {err}", file=sys.stderr)
            if getattr(err, "checkpoint_dir", None) is not None:
                print(
                    f"hint: rerun with --checkpoint-dir {err.checkpoint_dir} "
                    "--resume to pick up from the completed shards",
                    file=sys.stderr,
                )
            return EXIT_OPERATIONAL

    return main
