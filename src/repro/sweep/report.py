"""Sensitivity tables and differential reports over sweep results.

Two consumers: ``sp2-sweep run``/``report`` render per-axis sensitivity
tables (the marginal mean of each key metric at each axis value — the
RZBENCH-style "what does this knob do" view), and ``sp2-sweep compare``
diffs every Table 1–4 cell and headline between two scenarios, flagging
deltas whose confidence intervals don't overlap (repeat sweeps only —
two point values can differ without evidence, so they are never
flagged).

Everything here consumes the JSON-safe sweep *document* rather than
live objects, so ``report`` and ``compare`` work identically on a
just-finished run and on a ``run --out`` file from last week.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any

from repro.analysis.report import PAPER_CLAIMS
from repro.sweep.cache import CELL_FIELDS
from repro.util.checks import check_fields, check_number, check_object, describe
from repro.util.tables import Table

#: The per-axis sensitivity columns: (metric key, column header).
SENSITIVITY_METRICS = (
    ("campaign.daily_gflops_mean", "Gflops/day"),
    ("campaign.utilization_mean", "Utilization"),
    ("headline.TLB miss ratio (lower bound)", "TLB miss"),
    ("headline.cache miss ratio (lower bound)", "Cache miss"),
    ("campaign.jobs_accounted", "Jobs"),
)

#: The compare flag for a delta whose CIs don't overlap.
FLAG = "*"

#: A saved cell holds every field it is cached with; these are the
#: types of the fields a report or comparison reads.
_CELL_TYPES = {
    **dict.fromkeys(sorted(CELL_FIELDS), object),
    "name": str,
    "overrides": dict,
    "metrics": dict,
    "estimates": (dict, type(None)),
}
#: An estimate's interval, as :func:`cis_overlap` reads it.
_CI = {"ci_low": float, "ci_high": float}


def read_sweep_document(path: str | pathlib.Path) -> dict[str, Any]:
    """The document of a ``sp2-sweep run --out`` file, checked as it loads.

    Its ``spec`` block, if any, is an object whose ``axes`` map names to
    lists.  Its ``sweep.cells`` is a list of cell objects, each holding
    every field a cell is saved with
    (:data:`~repro.sweep.cache.CELL_FIELDS`): a string ``name``, an
    ``overrides`` object, a ``metrics`` object of numbers, and
    ``estimates`` that are null or an object whose entries are null or
    hold a numeric ``ci_low`` and ``ci_high``.  Anything else is a
    one-line ``ValueError`` naming the block or cell, before a report
    or comparison reads it."""
    document = json.loads(pathlib.Path(path).read_text())
    cells = _cells(document)
    spec = check_object(document.get("spec", {}), "spec")
    for axis, values in check_object(spec.get("axes") or {}, "spec.axes").items():
        if not isinstance(values, list):
            raise ValueError(f"spec.axes[{describe(axis)}] must be a list, got {describe(values)}")
    if not isinstance(cells, list):
        raise ValueError(f"sweep.cells must be a list, got {describe(cells)}")
    for i, cell in enumerate(cells):
        where = f"sweep.cells[{i}]"
        check_fields(cell, _CELL_TYPES, where)
        for metric, value in cell["metrics"].items():
            check_number(value, f"{where}.metrics[{describe(metric)}]", positive=None)
        for metric, entry in (cell["estimates"] or {}).items():
            if entry is not None:
                check_fields(entry, _CI, f"{where}.estimates[{describe(metric)}]")
    return document


def _cells(document: dict[str, Any]) -> list[dict[str, Any]]:
    try:
        return document["sweep"]["cells"]
    except (KeyError, TypeError):
        raise ValueError(
            "document has no 'sweep' block — is it a 'sp2-sweep run --out' file?"
        ) from None


def find_cell(document: dict[str, Any], name: str) -> dict[str, Any]:
    cells = _cells(document)
    for cell in cells:
        if cell.get("name") == name:
            return cell
    raise ValueError(
        f"no cell named {name!r} in this sweep; cells: "
        f"{', '.join(c.get('name', '?') for c in cells)}"
    )


# ----------------------------------------------------------------------
# Plan rendering
# ----------------------------------------------------------------------
def render_plan_table(plan, cached: set[str] | None = None) -> Table:
    """One row per planned cell (``sp2-sweep plan``)."""
    t = Table(
        title=f"Sweep plan '{plan.spec.name}': {plan.n_cells} cells",
        columns=("#", "Cell", "Fingerprint", "Days", "Nodes", "Cached"),
    )
    for cell in plan.cells:
        label = cell.name + (" (baseline)" if cell.is_baseline else "")
        t.add_row(
            cell.index,
            label,
            cell.fingerprint[:12],
            cell.config.n_days,
            cell.config.n_nodes,
            "yes" if cached and cell.fingerprint in cached else "no",
        )
    return t


# ----------------------------------------------------------------------
# Sensitivity
# ----------------------------------------------------------------------
def sensitivity_tables(document: dict[str, Any]) -> list[Table]:
    """Marginal means of the key metrics along each axis.

    Each axis gets one table with a row per value: the mean of every
    :data:`SENSITIVITY_METRICS` entry across all cells carrying that
    value — the other axes average out, which is exactly what "per-axis
    sensitivity" means on a full cross-product.
    """
    axes: dict[str, list] = document.get("spec", {}).get("axes", {}) or {}
    cells = _cells(document)
    tables: list[Table] = []
    for axis, values in axes.items():
        t = Table(
            title=f"Sensitivity to {axis} (marginal means over "
            f"{len(cells)} cells)",
            columns=(axis, "Cells") + tuple(h for _, h in SENSITIVITY_METRICS),
        )
        for value in values:
            group = [c for c in cells if c.get("overrides", {}).get(axis) == value]
            row: list[object] = [_fmt_axis_value(value), len(group)]
            for metric, _ in SENSITIVITY_METRICS:
                sample = [
                    c["metrics"][metric]
                    for c in group
                    if metric in (c.get("metrics") or {})
                ]
                row.append(sum(sample) / len(sample) if sample else "")
            t.add_row(*row)
        tables.append(t)
    return tables


def _fmt_axis_value(value: Any) -> str:
    from repro.sweep.planner import format_value

    return format_value(value)


def render_sweep_report(document: dict[str, Any]) -> str:
    """The ``run``/``report`` text body: cells, then sensitivity."""
    sweep = document.get("sweep", {})
    cells = _cells(document)
    lines = [
        f"Sweep '{sweep.get('name', '?')}': {len(cells)} cells "
        f"({sweep.get('executed', '?')} executed, {sweep.get('reused', '?')} reused)",
        "",
    ]
    t = Table(
        title="Cells",
        columns=("Cell", "Gflops/day", "Utilization", "Jobs"),
    )
    for cell in cells:
        metrics = cell.get("metrics") or {}
        t.add_row(
            cell.get("name", "?"),
            metrics.get("campaign.daily_gflops_mean", ""),
            metrics.get("campaign.utilization_mean", ""),
            metrics.get("campaign.jobs_accounted", ""),
        )
    lines.append(t.render())
    for table in sensitivity_tables(document):
        lines.append("")
        lines.append(table.render())
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Differential comparison
# ----------------------------------------------------------------------
def _metric_order(metrics: dict[str, Any]) -> list[str]:
    """campaign.* first (insertion order), headlines in the paper's
    order, then the table cells sorted within each table."""
    campaign = [m for m in metrics if m.startswith("campaign.")]
    present = set(metrics)
    headlines = [
        f"headline.{claim}"
        for claim in PAPER_CLAIMS
        if f"headline.{claim}" in present
    ]
    tables = sorted(
        m for m in metrics if m.startswith(("table2.", "table3.", "table4."))
    )
    rest = sorted(
        present
        - set(campaign)
        - set(headlines)
        - set(tables)
    )
    return campaign + headlines + tables + rest


def cis_overlap(a: dict[str, Any], b: dict[str, Any]) -> bool:
    """Whether two ``{ci_low, ci_high}`` intervals overlap at all."""
    return not (a["ci_high"] < b["ci_low"] or b["ci_high"] < a["ci_low"])


def compare_cells(
    document: dict[str, Any],
    a_name: str,
    b_name: str,
) -> tuple[Table, int, int]:
    """Diff every metric of two cells; returns (table, flagged, compared).

    With per-cell estimates (a ``repeat`` sweep), a row is flagged
    :data:`FLAG` when the two confidence intervals do not overlap — the
    same evidence standard the benchmark gates use (docs/STATS.md).
    Point-value sweeps show deltas but never flag: one seed cannot
    distinguish signal from noise.
    """
    a = find_cell(document, a_name)
    b = find_cell(document, b_name)
    a_est = a.get("estimates") or {}
    b_est = b.get("estimates") or {}
    a_metrics = a.get("metrics") or {}
    b_metrics = b.get("metrics") or {}

    t = Table(
        title=f"Differential: {a_name} vs {b_name}",
        columns=("Metric", a_name, b_name, "Delta", "Delta %", "Sig"),
    )
    flagged = 0
    compared = 0
    for metric in _metric_order(a_metrics):
        if metric not in b_metrics:
            continue
        va, vb = a_metrics[metric], b_metrics[metric]
        delta = vb - va
        pct = f"{100.0 * delta / va:+.1f}%" if va else ""
        ea, eb = a_est.get(metric), b_est.get(metric)
        sig = ""
        if ea is not None and eb is not None:
            compared += 1
            if not cis_overlap(ea, eb):
                sig = FLAG
                flagged += 1
            cell_a = f"{va:.4g} ±{(ea['ci_high'] - ea['ci_low']) / 2:.2g}"
            cell_b = f"{vb:.4g} ±{(eb['ci_high'] - eb['ci_low']) / 2:.2g}"
        else:
            compared += 1
            cell_a, cell_b = va, vb
        t.add_row(metric, cell_a, cell_b, delta, pct, sig)
    return t, flagged, compared


def render_compare(document: dict[str, Any], a_name: str, b_name: str) -> str:
    table, flagged, compared = compare_cells(document, a_name, b_name)
    has_estimates = any(
        c.get("estimates") for c in _cells(document)
    )
    lines = [table.render(), ""]
    if has_estimates:
        lines.append(
            f"non-overlapping deltas: {flagged} of {compared} metrics "
            f"(flagged {FLAG!r}; CIs per cell, docs/SWEEPS.md)"
        )
    else:
        lines.append(
            f"compared {compared} metrics (single-seed cells: deltas "
            "carry no significance flags — add a repeat block for CIs)"
        )
    return "\n".join(lines)
