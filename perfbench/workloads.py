"""The benchmark's three workloads, each one iteration of user-visible work.

A workload runs in a fresh interpreter (``iteration.py``) so it pays the
imports and cold ``lru_cache`` tables every ``sp2-*`` call pays.  It
imports what it uses, installs the recorder, runs, writes its artefacts,
hashes its simulated output and returns an :class:`Outcome`.  An
operation (a campaign, a shard or a sweep cell) that raises or whose
output fails the check counts as failed; the run goes on where it can.
Sizes are fields so the tests can run the same code on tiny campaigns.
"""

from __future__ import annotations

import json
import math
import pathlib
import time
from dataclasses import dataclass, field
from typing import Callable

from perfbench import check
from perfbench.probe import Recorder


@dataclass
class Outcome:
    """What one iteration did and when."""

    attempted: int
    #: Simulated nodes × days over every executed campaign.
    node_days: int
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: Host seconds of the simulation phase (None = it did not finish).
    sim_s: float | None = None
    #: Clock reading once every artefact was written (None = never).
    done: float | None = None
    #: sha256 of the simulated output (None = none produced).
    digest: str | None = None
    #: Simulated events over every executed campaign (None = none ran).
    events: int | None = None

    def fail(self, operations: int, why: str) -> None:
        self.failed += operations
        self.errors.append(why)


def _guarded(outcome: Outcome, operations: int, body: Callable[[], None]) -> bool:
    """Run ``body``; a raise fails ``operations`` operations."""
    try:
        body()
    except Exception as err:  # noqa: BLE001 - a raising operation is a measured failure
        outcome.fail(operations, f"{type(err).__name__}: {err}")
        return False
    return True


@dataclass(frozen=True)
class PaperStudy:
    """A serial healthy campaign at paper scale, then the full
    ``sp2-study --tables --figures --json`` artefact pass."""

    days: int = 30
    nodes: int = 144
    users: int = 60
    name: str = "paper-study"
    workers: int = 1

    @property
    def key(self) -> str:
        return f"{self.name}/{self.days}d-{self.nodes}n-{self.users}u"

    def run(self, seed: int, workdir: pathlib.Path, rec: Recorder) -> Outcome:
        from repro import analysis
        from repro.analysis.export import dataset_to_json
        from repro.core.study import StudyConfig, WorkloadStudy

        rec.install()
        out = Outcome(attempted=1, node_days=self.days * self.nodes)
        state: dict = {}

        def campaign() -> None:
            config = StudyConfig(
                seed=seed, n_days=self.days, n_nodes=self.nodes, n_users=self.users
            )
            study = WorkloadStudy(config)
            start = time.perf_counter()
            state["dataset"] = study.run()
            out.sim_s = time.perf_counter() - start
            out.events = state["dataset"].events_processed

        def report() -> None:
            dataset = state["dataset"]
            with rec.span("analysis.headlines"):
                headlines = analysis.paper_comparison(dataset)
            with rec.span("analysis.tables"):
                tables = [analysis.table1().render()]
                for gen in (analysis.table2, analysis.table3, analysis.table4):
                    try:
                        tables.append(gen(dataset).render())
                    except ValueError as err:  # what sp2-study prints instead
                        tables.append(f"({gen.__name__} unavailable: {err})")
            with rec.span("analysis.figures"):
                figures = [
                    fig(dataset).render()
                    for fig in (
                        analysis.figure1,
                        analysis.figure2,
                        analysis.figure3,
                        analysis.figure4,
                        analysis.figure5,
                    )
                ]
            with rec.span("analysis.json"):
                summary = dataset_to_json(dataset)
            (workdir / "study.txt").write_text("\n\n".join([headlines, *tables, *figures]) + "\n")
            (workdir / "summary.json").write_text(summary)
            out.done = time.perf_counter()
            out.digest = check.digest(
                [
                    ("summary.json", summary),
                    ("table2.txt", tables[1] + "\n"),
                    ("table3.txt", tables[2] + "\n"),
                    ("table4.txt", tables[3] + "\n"),
                    ("headlines.txt", headlines + "\n"),
                ]
            )

        if _guarded(out, 1, campaign) and _guarded(out, 1, report):
            problems = check.verify(
                self.key, seed, out.digest, lambda: check.band_failures(state["dataset"])
            )
            if problems:
                out.fail(1, "; ".join(problems))
        return out


@dataclass(frozen=True)
class ShardedFaults:
    """The paper machine under the ``pathological`` fault profile, run as
    day-range shards on a worker pool, then the merged JSON and the
    availability table."""

    days: int = 28
    shard_days: int = 7
    workers: int = 2
    nodes: int = 144
    users: int = 60
    name: str = "sharded-faults"

    @property
    def key(self) -> str:
        return f"{self.name}/{self.days}d-{self.shard_days}sd-{self.nodes}n-{self.users}u"

    def run(self, seed: int, workdir: pathlib.Path, rec: Recorder) -> Outcome:
        from repro.analysis.export import dataset_to_json
        from repro.core.study import StudyConfig
        from repro.faults.profile import FaultProfile
        from repro.faults.report import availability_table
        from repro.parallel.plan import plan_shards
        from repro.parallel.runner import ShardExecutionError, run_parallel_study

        rec.install()
        n_shards = len(plan_shards(self.days, self.shard_days))
        out = Outcome(attempted=n_shards + 1, node_days=self.days * self.nodes)
        config = StudyConfig(
            seed=seed,
            n_days=self.days,
            n_nodes=self.nodes,
            n_users=self.users,
            fault_profile=FaultProfile.named("pathological"),
        )
        start = time.perf_counter()
        try:
            dataset = run_parallel_study(
                config, workers=self.workers, shard_days=self.shard_days
            )
        except ShardExecutionError as err:
            out.fail(len(err.shard_indices) + 1, str(err))
            return out
        except Exception as err:  # noqa: BLE001 - a raising campaign is a measured failure
            out.fail(n_shards + 1, f"{type(err).__name__}: {err}")
            return out
        out.sim_s = time.perf_counter() - start
        out.events = dataset.events_processed
        state: dict = {}

        def report() -> None:
            with rec.span("analysis.json"):
                state["summary"] = dataset_to_json(dataset)
            with rec.span("faults.report"):
                availability = availability_table(dataset.faults).render()
            (workdir / "summary.json").write_text(state["summary"])
            (workdir / "availability.txt").write_text(availability + "\n")
            out.done = time.perf_counter()

        def bands() -> list[str]:
            injected = dataset.faults is not None and len(dataset.faults.events) > 0
            return check.band_failures(dataset) + ([] if injected else ["no fault injected"])

        if _guarded(out, 1, report):
            out.digest = check.digest([("summary.json", state["summary"])])
            problems = check.verify(self.key, seed, out.digest, bands)
            if problems:
                out.fail(1, "; ".join(problems))
        return out


#: Both axes move the model (64 MB pages); ``tlb_entries`` and
#: ``switch_latency_us`` moved no metric in a probe, so they are not used.
SWEEP_AXES = {"scheduler_policy": ["backfill", "fifo"], "memory_mb": [64, 128]}
#: Seeds in each cell's fixed repeat block.
SWEEP_REPEATS = 2


@dataclass(frozen=True)
class SmallSweep:
    """A 4-cell sweep grid on a small machine, each cell a fixed 2-seed
    repeat block: once against an empty cell cache, again at 100% reuse,
    then the sensitivity report."""

    days: int = 15
    nodes: int = 32
    users: int = 8
    name: str = "small-sweep"
    workers: int = 1

    @property
    def key(self) -> str:
        return f"{self.name}/{self.days}d-{self.nodes}n-{self.users}u"

    def spec(self, seed: int) -> dict:
        return {
            "name": self.name,
            "base": {
                "seed": seed,
                "n_days": self.days,
                "n_nodes": self.nodes,
                "n_users": self.users,
            },
            "axes": {axis: list(values) for axis, values in SWEEP_AXES.items()},
            "repeat": {"seeds": [seed + i for i in range(SWEEP_REPEATS)]},
        }

    def run(self, seed: int, workdir: pathlib.Path, rec: Recorder) -> Outcome:
        from repro.sweep import planner
        from repro.sweep.executor import run_sweep
        from repro.sweep.report import render_sweep_report
        from repro.sweep.spec import SweepSpec

        rec.install()
        cells = math.prod(len(values) for values in SWEEP_AXES.values())
        out = Outcome(
            attempted=2 * cells, node_days=cells * SWEEP_REPEATS * self.days * self.nodes
        )
        cache_dir = str(workdir / "cells")
        state: dict = {}

        def first_pass() -> None:
            spec = SweepSpec.from_dict(self.spec(seed))
            with rec.span("sweep.plan"):
                state["plan"] = planner.plan_sweep(spec)
            start = time.perf_counter()
            with rec.span("sweep.run"):
                state["first"] = run_sweep(state["plan"], cache_dir=cache_dir)
            out.sim_s = time.perf_counter() - start

        def second_pass() -> None:
            with rec.span("sweep.run"):
                second = run_sweep(state["plan"], cache_dir=cache_dir)
            document = second.document()
            with rec.span("sweep.report"):
                text = render_sweep_report(document)
            (workdir / "sweep.json").write_text(json.dumps(document, indent=2) + "\n")
            (workdir / "report.txt").write_text(text + "\n")
            out.done = time.perf_counter()
            for before, after in zip(state["first"].results, second.results):
                if not after.cached or after.document != before.document:
                    out.fail(1, f"cached pass: cell {after.cell.name} differs from the first pass")

        if not _guarded(out, 2 * cells, first_pass):
            return out
        documents = [r.document for r in state["first"].results]
        out.events = round(
            sum(d["metrics"]["campaign.events_processed"] * d["repeat"]["n"] for d in documents)
        )
        out.digest = check.digest([("cells", json.dumps(documents, sort_keys=True))])
        problems = check.verify(
            self.key, seed, out.digest, lambda: sweep_band_failures(documents)
        )
        if problems:
            out.fail(cells, "; ".join(problems))
        _guarded(out, cells, second_pass)
        return out


def sweep_band_failures(documents: list[dict]) -> list[str]:
    """Checks for a sweep seed without a recorded digest: every cell
    measured jobs, and paging (64 MB) costs Gflops against 128 MB."""
    failures = []
    gflops = {}
    for doc in documents:
        metrics = doc.get("metrics") or {}
        if metrics.get("campaign.jobs_accounted", 0) <= 0:
            failures.append(f"cell {doc['name']} measured no jobs")
        over = doc.get("overrides") or {}
        gflops[(over.get("scheduler_policy"), over.get("memory_mb"))] = metrics.get(
            "campaign.daily_gflops_mean", 0.0
        )
    for (policy, memory), value in gflops.items():
        roomy = gflops.get((policy, 128))
        if memory == 64 and roomy is not None and not value < roomy:
            failures.append(f"{policy}: 64 MB cell ({value}) not below 128 MB ({roomy})")
    return failures


WORKLOADS = {w.name: w for w in (PaperStudy(), ShardedFaults(), SmallSweep())}
