"""``sp2-sweep`` — declarative scenario sweeps with differential reports.

Where ``sp2-study`` measures one configuration and ``sp2-study repeat``
puts error bars on it, ``sp2-sweep`` crosses whole *axes* of
configurations — TLB entries, memory size, fault profile, scheduler
policy, switch latency — plans the cells, caches each by configuration
fingerprint, and diffs the results.

Examples::

    sp2-sweep axes                                   # what can be swept
    sp2-sweep plan --spec tlb.yaml                   # cells + fingerprints
    sp2-sweep run --spec tlb.yaml --cache-dir .sweep --out sweep.json
    sp2-sweep run --spec tlb.yaml --cache-dir .sweep # again: 100% reuse
    sp2-sweep report sweep.json                      # re-render saved run
    sp2-sweep compare sweep.json baseline tlb_entries=1024

Exit codes follow the repo-wide contract (CONTRIBUTING.md): 0 success,
1 operational failure (zero-cell plan, a cell that measured zero jobs),
2 usage error (bad spec, unknown axis/cell/selector).
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
    entry_point,
    positive_int,
    read_input,
    usage_errors,
    write_output,
)
from repro.sweep.cache import load_cell
from repro.sweep.executor import run_sweep
from repro.sweep.planner import (
    SweepPlan,
    axis_help,
    cell_name,
    parse_selector,
    plan_sweep,
)
from repro.sweep.report import (
    read_sweep_document,
    render_compare,
    render_plan_table,
    render_sweep_report,
)
from repro.sweep.spec import SweepSpec, load_spec_file


def _plan(args: argparse.Namespace) -> SweepPlan:
    with usage_errors():
        spec = load_spec_file(args.spec)
        return plan_sweep(spec, only=_parse_only(spec, args.only))


def _parse_only(spec: SweepSpec, pairs: list[str] | None) -> dict | None:
    """Repeatable ``--only`` flags intersect: each one is a constraint
    every kept cell must satisfy, so conflicting values for the same
    axis legitimately select zero cells (the exit-1 path) rather than
    last-flag-wins surprising the caller."""
    if not pairs:
        return None
    only: dict = {}
    for pair in pairs:
        for axis, value in parse_selector(spec, pair).items():
            if axis not in only:
                only[axis] = value
            elif only[axis] != value:
                allowed = only[axis] if isinstance(only[axis], list) else [only[axis]]
                only[axis] = [v for v in allowed if v == value]
    return only


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_axes(args: argparse.Namespace) -> int:
    print("Sweepable axes (base settings use the same names):")
    print(axis_help())
    return EXIT_OK


def cmd_plan(args: argparse.Namespace) -> int:
    plan = _plan(args)
    cached: set[str] = set()
    if args.cache_dir is not None:
        cached = {
            c.fingerprint
            for c in plan.cells
            if load_cell(str(args.cache_dir), c.fingerprint) is not None
        }
    print(render_plan_table(plan, cached).render())
    if plan.n_cells == 0:
        print("error: plan selected zero cells (--only filtered everything out)",
              file=sys.stderr)
        return EXIT_OPERATIONAL
    reusable = len(cached)
    print(
        f"\ncells: {plan.n_cells} planned, {plan.n_cells - reusable} to "
        f"execute, {reusable} cached"
    )
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    plan = _plan(args)
    if plan.n_cells == 0:
        print("error: plan selected zero cells (--only filtered everything out)",
              file=sys.stderr)
        return EXIT_OPERATIONAL

    t0 = time.time()
    print(
        f"Running sweep {plan.spec.name!r}: {plan.n_cells} cells"
        + (", repeat per cell" if plan.spec.repeat is not None else "")
        + (f", cache {args.cache_dir}" if args.cache_dir is not None else "")
        + "...",
        file=sys.stderr,
    )

    def progress(cell, cached: bool) -> None:
        how = "cache" if cached else "ran"
        print(f"  [{cell.index + 1}/{plan.n_cells}] {cell.name}: {how}",
              file=sys.stderr)

    result = run_sweep(
        plan,
        cache_dir=str(args.cache_dir) if args.cache_dir is not None else None,
        workers=args.workers or 1,
        force=args.force,
        progress=progress,
    )
    print(f"Sweep done in {time.time() - t0:.1f}s.", file=sys.stderr)

    document = result.document()
    if args.out is not None:
        write_output(args.out, json.dumps(document, indent=2) + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if args.out_dir is not None:
        for r in result.results:
            # A single-run cell file is byte-identical to what
            # `sp2-study --json` writes at the same settings (the
            # degeneracy contract); repeat cells save the full document.
            payload = r.summary if r.summary is not None else r.document
            path = write_output(
                args.out_dir / f"{r.cell.name}.json", json.dumps(payload, indent=2) + "\n"
            )
            print(f"wrote {path}", file=sys.stderr)

    if args.json:
        print(json.dumps(document, indent=2))
    else:
        print(render_sweep_report(document))
    pct = 100.0 * result.reuse_fraction
    print(
        f"\ncells: {plan.n_cells} planned, {result.executed} executed, "
        f"{result.reused} reused ({pct:.0f}% cache reuse)"
    )

    empty = result.zero_job_cells()
    if empty:
        print(
            "error: cells measured zero jobs — nothing to compare: "
            + ", ".join(empty),
            file=sys.stderr,
        )
        return EXIT_OPERATIONAL
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    print(render_sweep_report(read_input(args.summary, read_sweep_document)))
    return EXIT_OK


def _resolve_name(document: dict, text: str) -> str:
    """A compare operand → a cell name, via the saved spec block."""
    cells = document.get("sweep", {}).get("cells", [])
    names = {c.get("name") for c in cells}
    if text in names:
        return text
    spec = SweepSpec.from_dict(document.get("spec") or {})
    if text == "baseline":
        return cell_name(spec.baseline_overrides())
    selector = parse_selector(spec, text)
    return cell_name({**spec.baseline_overrides(), **selector})


def cmd_compare(args: argparse.Namespace) -> int:
    document = read_input(args.summary, read_sweep_document)
    with usage_errors():
        a = _resolve_name(document, args.a)
        b = _resolve_name(document, args.b)
        print(render_compare(document, a, b))
    return EXIT_OK


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sp2-sweep",
        description="Declarative scenario sweeps over the SP2 measurement "
        "campaign, with per-cell caching and differential reports.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    p_axes = sub.add_parser("axes", help="list the sweepable axes")
    p_axes.set_defaults(func=cmd_axes)

    def add_common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--spec", metavar="FILE", required=True,
                        help="sweep definition (JSON or YAML-subset file)")
        sp.add_argument(
            "--only", metavar="AXIS=VALUE", action="append", default=None,
            help="restrict the plan to matching cells (repeatable)",
        )
        sp.add_argument(
            "--cache-dir", type=pathlib.Path, default=None, metavar="DIR",
            help="per-cell result cache keyed by config fingerprint",
        )

    p_plan = sub.add_parser("plan", help="expand and fingerprint the cells")
    add_common(p_plan)
    p_plan.set_defaults(func=cmd_plan)

    p_run = sub.add_parser("run", help="execute the sweep (cache-aware)")
    add_common(p_run)
    p_run.add_argument("--workers", type=positive_int, default=None, metavar="N",
                       help="processes per cell (shards or repeat seeds); "
                       "never changes output, only wall time")
    p_run.add_argument("--force", action="store_true",
                       help="recompute every cell, ignoring the cache")
    p_run.add_argument("--out", type=pathlib.Path, default=None, metavar="FILE",
                       help="save the whole-sweep JSON document here")
    p_run.add_argument("--out-dir", type=pathlib.Path, default=None, metavar="DIR",
                       help="write one JSON file per cell here")
    p_run.add_argument("--json", action="store_true",
                       help="print the sweep document as JSON")
    p_run.set_defaults(func=cmd_run)

    p_report = sub.add_parser("report", help="re-render a saved sweep run")
    p_report.add_argument("summary", help="JSON file from 'sp2-sweep run --out'")
    p_report.set_defaults(func=cmd_report)

    p_cmp = sub.add_parser(
        "compare", help="diff two cells' tables and headlines"
    )
    p_cmp.add_argument("summary", help="JSON file from 'sp2-sweep run --out'")
    p_cmp.add_argument("a", help="baseline cell ('baseline', a cell name, "
                       "or axis=value[,axis=value])")
    p_cmp.add_argument("b", help="contender cell (same forms)")
    p_cmp.set_defaults(func=cmd_compare)
    return p


@entry_point
def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
