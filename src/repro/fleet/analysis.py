"""XDMoD-style cross-machine workload analysis.

The modern descendants of the paper compare centers, not nodes: per
-center utilization, job-size distribution and application mix, side by
side across a federation (XDMoD's NSF-wide tables, the Blue Waters
workload report).  This module reduces a :class:`~repro.fleet.runner.
FleetDataset` to a JSON-ready **fleet summary** — the ``sp2-fleet
--json`` block, pinned by a golden file — and renders the comparison
tables from that summary, so saved runs (``sp2-fleet report saved.json``)
and live runs share one rendering path.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any

from repro.fleet.runner import FleetDataset
from repro.power2.config import POWER2_590
from repro.util.checks import check_fields, check_number, describe
from repro.util.tables import Table


def _member_summary(fleet: FleetDataset, name: str) -> dict[str, Any]:
    member = fleet.spec.member(name)
    dataset = fleet.member(name)
    daily = dataset.daily_gflops()
    util = dataset.daily_utilization()[: len(daily)] if daily.size else dataset.daily_utilization()
    acct = dataset.accounting
    cfg = dataset.config.machine_config or POWER2_590
    peak_gflops = member.n_nodes * cfg.peak_mflops / 1e3

    job_sizes: dict[str, dict[str, float]] = {}
    app_mix: dict[str, float] = {}
    for r in acct.records:
        node_seconds = r.nodes_requested * r.walltime_seconds
        bucket = job_sizes.setdefault(str(r.nodes_requested), {"jobs": 0, "node_seconds": 0.0})
        bucket["jobs"] += 1
        bucket["node_seconds"] += node_seconds
        app_mix[r.app_name] = app_mix.get(r.app_name, 0.0) + node_seconds

    out: dict[str, Any] = {
        "name": name,
        "n_nodes": member.n_nodes,
        "fault_profile": member.fault_profile,
        "peak_gflops": peak_gflops,
        "routed_submissions": len(fleet.trace.member_traces[name].submissions),
        "jobs_accounted": len(acct),
        "utilization_mean": float(util.mean()) if util.size else 0.0,
        "utilization_max": float(util.max()) if util.size else 0.0,
        "daily_gflops_mean": float(daily.mean()) if daily.size else 0.0,
        "daily_gflops_max": float(daily.max()) if daily.size else 0.0,
        "efficiency": (
            float(daily.mean()) / peak_gflops if daily.size and peak_gflops else 0.0
        ),
        "time_weighted_mflops_per_node": acct.time_weighted_mflops_per_node(),
        "job_sizes": dict(sorted(job_sizes.items(), key=lambda kv: int(kv[0]))),
        "app_mix_node_seconds": dict(sorted(app_mix.items())),
    }
    if dataset.telemetry is not None:
        out["alerts_total"] = dataset.telemetry.summary()["alerts_total"]
    if dataset.faults is not None:
        from repro.faults.report import fault_summary

        out["faults"] = fault_summary(dataset.faults)
    return out


def fleet_summary(fleet: FleetDataset) -> dict[str, Any]:
    """The ``--json`` fleet block: spec echo plus per-center metrics."""
    members = [_member_summary(fleet, m.name) for m in fleet.spec.members]
    total_nodes = fleet.spec.total_nodes
    return {
        "fleet": {
            "name": fleet.spec.name,
            "seed": fleet.spec.seed,
            "n_days": fleet.spec.n_days,
            "n_users": fleet.spec.n_users,
            "routing": fleet.spec.routing,
            "n_members": len(members),
            "total_nodes": total_nodes,
            "total_submissions": fleet.trace.total_submissions,
            "total_jobs_accounted": sum(m["jobs_accounted"] for m in members),
            "fleet_gflops_mean": sum(m["daily_gflops_mean"] for m in members),
            # Node-weighted: the utilization of the federation seen as
            # one big machine.
            "utilization_mean": sum(
                m["utilization_mean"] * m["n_nodes"] for m in members
            )
            / total_nodes,
            "members": members,
        }
    }


#: The ``fleet`` block's keys, and the member fields the report and the
#: comparison read, with the type each must have (``float``: a number).
FLEET_FIELDS = {
    "name": str, "routing": str, "members": list, "seed": int, "n_days": int, "n_users": int,
    "n_members": int, "total_nodes": int, "total_submissions": int, "total_jobs_accounted": int,
    "fleet_gflops_mean": float, "utilization_mean": float,
}
MEMBER_FIELDS = {
    "name": str, "fault_profile": (str, type(None)), "n_nodes": int, "jobs_accounted": int,
    "utilization_mean": float, "utilization_max": float, "daily_gflops_mean": float,
    "efficiency": float, "time_weighted_mflops_per_node": float,
    "job_sizes": dict, "app_mix_node_seconds": dict,
}


def read_fleet_document(path: str | pathlib.Path) -> dict[str, Any]:
    """The document of a ``sp2-fleet run --out`` file, checked as it loads.

    Its ``fleet`` block holds every :data:`FLEET_FIELDS` key, and each
    of its ``members`` every :data:`MEMBER_FIELDS` field, with
    ``job_sizes`` keyed by node count and holding a numeric
    ``node_seconds`` per size, and numeric ``app_mix_node_seconds``.
    Anything else is a one-line ``ValueError`` before
    :func:`render_fleet_report` or :func:`compare_fleets` reads it."""
    document = json.loads(pathlib.Path(path).read_text())
    if not isinstance(document, dict) or "fleet" not in document:
        raise ValueError("document has no 'fleet' block — is it a 'sp2-fleet run --out' file?")
    block = check_fields(document["fleet"], FLEET_FIELDS, "fleet")
    for i, member in enumerate(block["members"]):
        where = f"fleet.members[{i}]"
        check_fields(member, MEMBER_FIELDS, where)
        for size, bucket in member["job_sizes"].items():
            what = f"{where}.job_sizes[{describe(size)}]"
            try:
                int(size)
            except ValueError:
                raise ValueError(f"{what}: a job size must be a node count") from None
            check_fields(bucket, {"node_seconds": float}, what)
        for app, node_seconds in member["app_mix_node_seconds"].items():
            check_number(node_seconds, f"{where}.app_mix_node_seconds[{describe(app)}]",
                         positive=None)
    return document


def utilization_table(summary: dict[str, Any]) -> Table:
    """Per-center utilization and delivered performance."""
    block = summary["fleet"]
    t = Table(
        title=f"Fleet utilization by center ({block['n_days']} days, "
        f"routing={block['routing']})",
        columns=(
            "Center",
            "Nodes",
            "Faults",
            "Jobs",
            "Util avg",
            "Util max",
            "Gflops avg",
            "Eff %",
            "MF/node (tw)",
        ),
    )
    for m in block["members"]:
        t.add_row(
            m["name"],
            m["n_nodes"],
            m["fault_profile"],
            m["jobs_accounted"],
            m["utilization_mean"],
            m["utilization_max"],
            m["daily_gflops_mean"],
            100.0 * m["efficiency"],
            m["time_weighted_mflops_per_node"],
        )
    t.add_section("fleet")
    t.add_row(
        "(all)",
        block["total_nodes"],
        "",
        block["total_jobs_accounted"],
        block["utilization_mean"],
        "",
        block["fleet_gflops_mean"],
        "",
        "",
    )
    return t


def job_size_table(summary: dict[str, Any]) -> Table:
    """Job-size distribution per center (% of node-seconds)."""
    block = summary["fleet"]
    members = block["members"]
    sizes = sorted(
        {int(s) for m in members for s in m["job_sizes"]},
    )
    t = Table(
        title="Job-size distribution (% of node-seconds per center)",
        columns=("Nodes/job", *[m["name"] for m in members]),
    )
    totals = {
        m["name"]: sum(b["node_seconds"] for b in m["job_sizes"].values())
        for m in members
    }
    for size in sizes:
        row: list[object] = [size]
        for m in members:
            bucket = m["job_sizes"].get(str(size))
            total = totals[m["name"]]
            share = 100.0 * bucket["node_seconds"] / total if bucket and total else 0.0
            row.append(share)
        t.add_row(*row)
    return t


def app_mix_table(summary: dict[str, Any]) -> Table:
    """Application mix per center (% of node-seconds)."""
    block = summary["fleet"]
    members = block["members"]
    fleet_totals: dict[str, float] = {}
    for m in members:
        for app, ns in m["app_mix_node_seconds"].items():
            fleet_totals[app] = fleet_totals.get(app, 0.0) + ns
    apps = sorted(fleet_totals, key=lambda a: (-fleet_totals[a], a))
    t = Table(
        title="Application mix (% of node-seconds per center)",
        columns=("Application", *[m["name"] for m in members]),
    )
    totals = {
        m["name"]: sum(m["app_mix_node_seconds"].values()) for m in members
    }
    for app in apps:
        row: list[object] = [app]
        for m in members:
            total = totals[m["name"]]
            share = (
                100.0 * m["app_mix_node_seconds"].get(app, 0.0) / total
                if total
                else 0.0
            )
            row.append(share)
        t.add_row(*row)
    return t


def render_fleet_report(summary: dict[str, Any]) -> str:
    """The full cross-center comparison: all three tables."""
    block = summary["fleet"]
    header = (
        f"Fleet {block['name']!r}: {block['n_members']} centers, "
        f"{block['total_nodes']} nodes, {block['n_users']} users, "
        f"seed {block['seed']} — {block['total_submissions']} submissions routed "
        f"via {block['routing']}"
    )
    return "\n\n".join(
        [
            header,
            utilization_table(summary).render(),
            job_size_table(summary).render(),
            app_mix_table(summary).render(),
        ]
    )


#: The per-center metrics ``compare_fleets`` diffs, with display labels.
_COMPARE_METRICS = (
    ("jobs_accounted", "jobs"),
    ("utilization_mean", "util avg"),
    ("daily_gflops_mean", "Gflops avg"),
    ("time_weighted_mflops_per_node", "MF/node (tw)"),
)


def compare_fleets(
    a: dict[str, Any], b: dict[str, Any], *, label_a: str = "A", label_b: str = "B"
) -> Table:
    """Center-by-center diff of two fleet runs (XDMoD's compare view).

    Centers present in only one run get a one-sided row; the delta
    column is the relative change from ``a`` to ``b``.
    """
    block_a, block_b = a["fleet"], b["fleet"]
    by_name_a = {m["name"]: m for m in block_a["members"]}
    by_name_b = {m["name"]: m for m in block_b["members"]}
    names = list(by_name_a) + [n for n in by_name_b if n not in by_name_a]
    t = Table(
        title=f"Fleet comparison: {label_a} vs {label_b}",
        columns=("Center", "Metric", label_a, label_b, "Delta %"),
    )
    for name in names:
        ma, mb = by_name_a.get(name), by_name_b.get(name)
        for key, label in _COMPARE_METRICS:
            va = ma[key] if ma else None
            vb = mb[key] if mb else None
            if va is not None and vb is not None and va:
                delta = 100.0 * (vb - va) / va
                t.add_row(name, label, va, vb, delta)
            else:
                t.add_row(
                    name,
                    label,
                    va if va is not None else "-",
                    vb if vb is not None else "-",
                    "",
                )
    return t
