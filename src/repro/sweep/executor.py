"""Run a :class:`~repro.sweep.planner.SweepPlan`'s cells.

Each cell runs through :func:`repro.core.study.run_study`: serial, or
sharded when the spec gives a shard plan.  A spec with a ``repeat``
block runs the :mod:`repro.stats` Repeater instead, so every cell's
metrics arrive as ``mean ± hw [n, rule]`` estimates instead of single
realizations.  ``workers`` only spreads a cell's shards or repeat seeds
across processes; it never changes a cell.

A cell with **no axes applied** produces *exactly* the dataset summary
``sp2-study --json`` writes at the same settings — the degeneracy
contract the acceptance tests pin byte-for-byte.

Results are cached per cell (:mod:`repro.sweep.cache`) keyed by the
resolved-config fingerprint, so re-running an edited spec executes only
the changed cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.analysis.export import dataset_summary
from repro.core.study import run_study
from repro.stats.annotate import estimate_payload, samples_payload
from repro.stats.campaign import ConfigRepeatSpec
from repro.stats.metrics import collect_metrics
from repro.stats.repeater import Repeater
from repro.stats.stopping import RSERule
from repro.sweep.cache import load_cell, save_cell
from repro.sweep.planner import CELL_VERSION, Cell, SweepPlan
from repro.sweep.spec import SweepSpec


@dataclass
class CellResult:
    """One executed (or cache-served) cell."""

    cell: Cell
    #: The JSON-safe cell document (what the cache stores).
    document: dict[str, Any]
    #: True when the document came from the cell cache, not a campaign.
    cached: bool

    @property
    def summary(self) -> dict[str, Any] | None:
        """The single-run dataset summary (None for repeat cells)."""
        return self.document.get("summary")

    @property
    def metrics(self) -> dict[str, float]:
        """Flat point values (across-seed means for repeat cells)."""
        return self.document.get("metrics") or {}

    @property
    def estimates(self) -> dict[str, dict] | None:
        """Per-metric ``{mean, ci_low, ci_high, n, rule}`` (repeat only)."""
        return self.document.get("estimates")

    @property
    def jobs(self) -> float:
        """Jobs measured across the cell's campaign(s) — zero means the
        cell measured nothing, the CLI's exit-1 condition."""
        if self.document.get("samples"):
            values = self.document["samples"].get("campaign.jobs_accounted", {})
            return float(sum(values.get("values", [])))
        summary = self.summary or {}
        return float(summary.get("campaign", {}).get("jobs_accounted", 0))


@dataclass
class SweepResult:
    """Everything one sweep run produced."""

    plan: SweepPlan
    results: list[CellResult]

    @property
    def executed(self) -> int:
        return sum(1 for r in self.results if not r.cached)

    @property
    def reused(self) -> int:
        return sum(1 for r in self.results if r.cached)

    @property
    def reuse_fraction(self) -> float:
        return self.reused / len(self.results) if self.results else 0.0

    def result(self, name: str) -> CellResult:
        for r in self.results:
            if r.cell.name == name:
                return r
        raise KeyError(f"no cell named {name!r}")

    def zero_job_cells(self) -> list[str]:
        return [r.cell.name for r in self.results if r.jobs == 0]

    def document(self) -> dict[str, Any]:
        """The saveable whole-sweep JSON document (``run --out``)."""
        return {
            "spec": self.plan.spec.to_dict(),
            "sweep": {
                "name": self.plan.spec.name,
                "cells": [r.document for r in self.results],
                "executed": self.executed,
                "reused": self.reused,
            },
        }


# ----------------------------------------------------------------------
# Cell execution
# ----------------------------------------------------------------------
def _run_single(cell: Cell, spec: SweepSpec, workers: int) -> dict[str, Any]:
    dataset = run_study(cell.config, shard_days=spec.shard_days, workers=workers)
    return {
        "summary": dataset_summary(dataset),
        "metrics": collect_metrics(dataset),
        "repeat": None,
        "estimates": None,
        "samples": None,
    }


def _run_repeat(cell: Cell, spec: SweepSpec, workers: int) -> dict[str, Any]:
    repeat = spec.repeat
    assert repeat is not None
    unit = ConfigRepeatSpec(config=cell.config, shard_days=spec.shard_days)
    rules = [RSERule(repeat.target_rse)] if repeat.target_rse is not None else []
    repeater = Repeater(
        run_one=unit.run_one,
        rules=rules,
        max_repeats=repeat.max_repeats,
        batch_size=repeat.batch,
        target_metric=repeat.metric,
        confidence=repeat.confidence,
        workers=workers,
    )
    result = repeater.run(seed0=cell.config.seed, seeds=repeat.seeds)
    estimates = {metric: estimate_payload(result, metric) for metric in result.metrics()}
    return {
        "summary": None,
        "metrics": {metric: est["mean"] for metric, est in estimates.items()},
        "repeat": {
            "n": result.n,
            "rule": result.stopped.rule,
            "detail": result.stopped.detail,
            "seeds": result.seeds,
            "target_metric": result.target_metric,
            "confidence": result.confidence,
        },
        "estimates": estimates,
        "samples": samples_payload(result),
    }


def execute_cell(cell: Cell, spec: SweepSpec, *, workers: int = 1) -> dict[str, Any]:
    """Run one cell's campaign(s) and build its cache document."""
    body = (
        _run_repeat(cell, spec, workers)
        if spec.repeat is not None
        else _run_single(cell, spec, workers)
    )
    return {
        "version": CELL_VERSION,
        "fingerprint": cell.fingerprint,
        "name": cell.name,
        "overrides": dict(cell.overrides),
        "settings": dict(cell.settings),
        **body,
    }


#: Progress hook: (cell, cached) after each cell resolves.
ProgressFn = Callable[[Cell, bool], None]


def run_sweep(
    plan: SweepPlan,
    *,
    cache_dir: str | None = None,
    workers: int = 1,
    force: bool = False,
    progress: ProgressFn | None = None,
) -> SweepResult:
    """Execute every planned cell, serving unchanged ones from cache.

    ``force`` recomputes (and re-caches) every cell; ``workers`` spreads
    each cell's shards or repeat seeds across processes — never changing
    output, only wall time.
    """
    results: list[CellResult] = []
    for cell in plan.cells:
        document = None
        cached = False
        if cache_dir is not None and not force:
            document = load_cell(cache_dir, cell.fingerprint)
            cached = document is not None
        if document is None:
            document = execute_cell(cell, plan.spec, workers=workers)
            if cache_dir is not None:
                save_cell(cache_dir, document)
        if progress is not None:
            progress(cell, cached)
        results.append(CellResult(cell=cell, document=document, cached=cached))
    return SweepResult(plan=plan, results=results)
