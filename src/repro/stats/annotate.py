"""``value ± halfwidth [n=…, rule=…]`` reporting for repeat campaigns.

Takes a :class:`~repro.stats.repeater.RepeatResult` and renders the same
artefacts a single campaign prints — the headline block, Tables 1–4 and
the ``--json`` summary — with every numeric value replaced by an
across-seed estimate ``{mean, ci_low, ci_high, n, rule}``.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.report import PAPER_CLAIMS
from repro.analysis.tables import TABLE2_ROWS, TABLE3_SECTIONS, table1
from repro.stats.estimators import Estimate
from repro.stats.repeater import RepeatResult
from repro.util.tables import Table


def estimate_payload(result: RepeatResult, metric: str) -> dict[str, Any]:
    """The canonical JSON annotation for one metric."""
    est = result.estimate(metric)
    payload = est.as_dict()
    payload["rule"] = result.stopped.rule
    return payload


def samples_payload(result: RepeatResult) -> dict[str, Any]:
    """Every metric's per-seed sample, ``{metric: {seeds, values}}``."""
    return {
        metric: {"seeds": result.metric_seeds[metric], "values": result.samples[metric]}
        for metric in result.metrics()
    }


def format_estimate(est: Estimate, rule: str | None = None, fmt: str = "{:.3g}") -> str:
    """``1.27 ± 0.034 [n=48, rule=rse]`` (the ``±`` reads as the 95% CI
    half-width around the across-seed mean)."""
    base = f"{fmt.format(est.mean)} ± {fmt.format(est.halfwidth)}"
    tag = f"n={est.n}" if rule is None else f"n={est.n}, rule={rule}"
    return f"{base} [{tag}]"


# ----------------------------------------------------------------------
# Headline block
# ----------------------------------------------------------------------
def _headline_metrics(result: RepeatResult) -> list[str]:
    """``headline.*`` metrics in the paper's reporting order."""
    present = {m for m in result.metrics() if m.startswith("headline.")}
    ordered = [
        f"headline.{claim}" for claim in PAPER_CLAIMS if f"headline.{claim}" in present
    ]
    return ordered + sorted(present.difference(ordered))


def repeat_headline_lines(result: RepeatResult) -> list[str]:
    """The paper-vs-measured block with error bars on every claim."""
    rule = result.stopped.rule
    lines = [
        f"Paper vs measured ({result.n} campaigns, rule={rule}):",
        "",
    ]
    for metric in _headline_metrics(result):
        claim = metric[len("headline."):]
        paper, unit = PAPER_CLAIMS.get(claim, (None, ""))
        est = result.estimate(metric)
        pm = f"{est.mean:>8.3g} ± {est.halfwidth:<8.3g}"
        if paper:
            ratio = est.mean / paper
            lines.append(
                f"{claim:<48s} paper {paper:>8.3g} {unit:<10s}"
                f" measured {pm} (x{ratio:.2f}, n={est.n})"
            )
        else:  # pragma: no cover - every claim is in PAPER_CLAIMS today
            lines.append(f"{claim:<48s} measured {pm} (n={est.n})")
    return lines


def repeat_headline_block(result: RepeatResult) -> str:
    return "\n".join(repeat_headline_lines(result))


# ----------------------------------------------------------------------
# Tables 1–4 with error bars
# ----------------------------------------------------------------------
def _pm_cell(result: RepeatResult, metric: str) -> tuple[object, object, object]:
    """(mean, ±halfwidth, n) cells, or blanks when no seed produced it."""
    if metric not in result.samples:
        return "", "", ""
    est = result.estimate(metric)
    return est.mean, f"±{est.halfwidth:.3g}", est.n


def repeat_table2(result: RepeatResult) -> Table:
    t = Table(
        title=f"Table 2 (across {result.n} campaigns): Measured Major Rates",
        columns=("Rates", "Avg Rate", "95% CI", "n"),
    )
    for label, _ in TABLE2_ROWS:
        mean, pm, n = _pm_cell(result, f"table2.{label}.avg")
        t.add_row(label, mean, pm, n)
    return t


def repeat_table3(result: RepeatResult) -> Table:
    t = Table(
        title=f"Table 3 (across {result.n} campaigns): breakdown",
        columns=("Rates", "Avg", "95% CI", "n"),
    )
    for section, entries in TABLE3_SECTIONS:
        t.add_section(section)
        for label, _ in entries:
            mean, pm, n = _pm_cell(result, f"table3.{section}.{label}.avg")
            t.add_row(label, mean, pm, n)
    return t


#: Table 4's (row label, workload metric, analytic columns) layout.
_TABLE4_ROWS = (
    (
        "Cache Miss Ratio",
        "table4.workload.cache_miss_ratio",
        "table4.sequential.cache_miss_ratio",
        "table4.npb_bt.cache_miss_ratio",
    ),
    (
        "TLB Miss Ratio",
        "table4.workload.tlb_miss_ratio",
        "table4.sequential.tlb_miss_ratio",
        "table4.npb_bt.tlb_miss_ratio",
    ),
    ("Mflops/CPU", "table4.workload.mflops", None, "table4.npb_bt.mflops"),
)


def repeat_table4(result: RepeatResult) -> Table:
    t = Table(
        title=f"Table 4 (across {result.n} campaigns): Hierarchical Memory",
        columns=("Rate", "NAS Workload", "95% CI", "Sequential Access", "NPB BT"),
    )
    for label, wl, seq, bt in _TABLE4_ROWS:
        mean, pm, _ = _pm_cell(result, wl)
        seq_cell = result.estimate(seq).mean if seq and seq in result.samples else ""
        bt_cell = result.estimate(bt).mean if bt and bt in result.samples else ""
        t.add_row(label, mean, pm, seq_cell, bt_cell)
    return t


def repeat_tables(result: RepeatResult) -> list[Table]:
    """Tables 1–4; Table 1 is the static counter layout (no error bars —
    nothing in it is measured)."""
    return [table1(), repeat_table2(result), repeat_table3(result), repeat_table4(result)]


# ----------------------------------------------------------------------
# JSON summary
# ----------------------------------------------------------------------
def _table_payload(result: RepeatResult, prefix: str) -> dict[str, Any]:
    return {
        metric[len(prefix):]: estimate_payload(result, metric)
        for metric in result.metrics()
        if metric.startswith(prefix)
    }


def repeat_summary(
    result: RepeatResult, config: dict[str, Any] | None = None
) -> dict[str, Any]:
    """The ``sp2-study repeat --json`` payload.

    Every numeric table/headline/campaign value carries
    ``{mean, ci_low, ci_high, n, rule}``; the full per-seed sample set
    rides along under ``samples`` so downstream tooling (and the CI
    artifact) can re-estimate anything without re-running campaigns.
    """
    shape = result.shape()
    out: dict[str, Any] = {
        "repeat": {
            "target_metric": result.target_metric,
            "rule": result.stopped.rule,
            "detail": result.stopped.detail,
            "n": result.n,
            "batch_sizes": result.batch_sizes,
            "seeds": result.seeds,
            "confidence": result.confidence,
            "distribution": shape.as_dict(),
        },
        "config": config or {},
        "campaign": _table_payload(result, "campaign."),
        "headlines": [
            {
                "claim": metric[len("headline."):],
                "paper": PAPER_CLAIMS.get(metric[len("headline."):], (None, ""))[0],
                "unit": PAPER_CLAIMS.get(metric[len("headline."):], (None, ""))[1],
                "measured": estimate_payload(result, metric),
            }
            for metric in _headline_metrics(result)
        ],
        "tables": {
            "table1": {"static": True, "rows": len(table1().rows)},
            "table2": _table_payload(result, "table2."),
            "table3": _table_payload(result, "table3."),
            "table4": _table_payload(result, "table4."),
        },
        "samples": samples_payload(result),
    }
    return out
