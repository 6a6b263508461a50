"""What the benchmark measures and why: workloads and metrics.

``BENCHMARK.json`` is generated from this module
(``python3 -m perfbench.catalog > BENCHMARK.json``, checked by the
tests).  Its format allows only names, units, bounds and a one-line
``why``; the rest of the reasoning — which layers each workload loads or
bypasses, which end-to-end metric each per-layer metric should move on
which workload, and which counts must repeat exactly — lives here, and
later changes cite these names.

``error_rate`` (failed over attempted operations; an operation is a
campaign, a shard or a sweep cell) is 0 at a correct commit, and the
benchmark format refuses end-to-end metrics that read 0.  It travels as
the result line's ``attempted`` and ``failed`` and is printed by name
with the other end-to-end metrics.  This module imports nothing from
``repro``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

RUN_SECONDS = 30


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loads: str
    bypasses: str


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end only: share of the parent's median it may worsen by.
    bound: float | None = None
    #: Per-layer only: the end-to-end metric and workload it should move.
    moves: str = ""
    #: Per-layer only: where it should not move.
    steady: str = ""
    #: A count that must repeat exactly across runs of one seed.
    exact: bool = False
    #: A time that includes its callees (``_s`` is self time otherwise).
    inclusive: bool = False


WORKLOADS = (
    Workload(
        "paper-study",
        "serial healthy 30-day campaign at paper scale (144 nodes, 60 users), then the "
        "full sp2-study tables/figures/json pass: per-node work and analysis dominate",
        loads="the collector's 144-node sweep, counter accrual and job-epilogue deltas; "
        "the report pass (about a third of wall time) makes analysis visible; counter "
        "samples are kept for the whole campaign, so peak_rss_mb grows with days",
        bypasses="parallel, faults, sweep, stats",
    ),
    Workload(
        "sharded-faults",
        "28-day campaign on the paper machine with the pathological fault profile, as 4 "
        "shards on 2 worker processes, then merged JSON and availability table",
        loads="parallel (pickling, merge, bulk telemetry replay) and faults (node crash "
        "and requeue, paging storms, collector gaps); telemetry is replayed in bulk at "
        "merge instead of live",
        bypasses="sweep, stats, the tables/figures pass",
    ),
    Workload(
        "small-sweep",
        "4-cell sweep (scheduler_policy x memory_mb, 2 seeds per cell) of 15-day campaigns on "
        "32 nodes: empty cell cache, then 100% reuse, then the sensitivity report",
        loads="sweep (plan, cache write then read) and stats; many short small-machine "
        "campaigns make per-event and per-interval costs dominate while per-node work is "
        "small; memory_mb 64 triggers paging, so both axes move the model",
        bypasses="parallel, faults, the tables/figures pass",
    ),
)

#: Times and rates are reported at the reference host speed
#: (``reference.py``): measured on a shared 2-core host, the same
#: iteration ran 1.5–2.5× slower under other tenants' load than on a
#: quiet host.  What the reference does not cancel still leaves times the
#: widest bound the format allows.  Peak RSS repeats per seed, but a
#: sweep's peak jumps between levels when an allocation change moves the
#: garbage collector's timing.
END_TO_END = (
    Metric("setup_s", "s", "lower", bound=0.25),
    Metric("wall_s", "s", "lower", bound=0.25),
    Metric("node_days_per_s", "node-days/s", "higher", bound=0.25),
    Metric("peak_rss_mb", "MiB", "lower", bound=0.15),
)

ALL = "all three workloads"
PAPER = "paper-study"
FAULTS = "sharded-faults"
SWEEP = "small-sweep"
HEALTHY = "paper-study and small-sweep (reads 0)"
NO_PARALLEL = "paper-study and small-sweep (never called)"
NO_SWEEP = "paper-study and sharded-faults (never called)"
DELTA_SUMS = (
    f"node_days_per_s on {PAPER} and {FAULTS} (3 calls per job in the campaign, re-summed "
    f"in merge's replay), wall_s on {PAPER} (the report pass sums them again)"
)


def _m(name, unit, better, moves, steady="", exact=False, inclusive=False):
    return Metric(
        name, unit, better, moves=moves, steady=steady, exact=exact, inclusive=inclusive
    )


PER_LAYER = (
    _m("workload.trace_s", "s", "lower", f"node_days_per_s on {ALL}"),
    _m("workload.submissions", "count", "lower", f"node_days_per_s on {ALL}", exact=True),
    _m("sim.events", "count", "lower", f"node_days_per_s on {ALL}, most on {SWEEP}", exact=True),
    _m("sim.dispatch_s", "s", "lower", f"node_days_per_s on {ALL}, most on {SWEEP}"),
    _m("sim.step_p50_us", "us", "lower", f"node_days_per_s on {ALL}, most on {SWEEP}"),
    _m("sim.step_p99_us", "us", "lower", f"node_days_per_s on {ALL}, most on {SWEEP}"),
    _m("sim.cron_s", "s", "lower", f"node_days_per_s on {ALL}, most on {SWEEP}",
       inclusive=True),
    _m("sim.end_job_s", "s", "lower", f"node_days_per_s on {ALL}, most on {SWEEP}",
       inclusive=True),
    _m("sim.submit_s", "s", "lower", f"node_days_per_s on {ALL}, most on {SWEEP}",
       inclusive=True),
    _m("sim.probe_s", "s", "lower", f"node_days_per_s on {ALL}, most on {SWEEP}",
       inclusive=True),
    _m("sim.fault_s", "s", "lower", f"node_days_per_s on {FAULTS}", HEALTHY, inclusive=True),
    _m("power2.store_syncs", "count", "lower", f"node_days_per_s on {PAPER}",
       f"barely on {SWEEP}", exact=True),
    _m("power2.accrual_s", "s", "lower", f"node_days_per_s on {PAPER}", f"barely on {SWEEP}"),
    _m("hpm.passes", "count", "lower", f"node_days_per_s on {PAPER}", SWEEP, exact=True),
    _m("hpm.collect_s", "s", "lower", f"node_days_per_s on {PAPER}", SWEEP),
    _m("hpm.sample_mb", "MiB", "lower", f"peak_rss_mb on {PAPER} and {FAULTS}", SWEEP,
       exact=True),
    _m("hpm.intervals_s", "s", "lower", f"node_days_per_s on {PAPER}", SWEEP),
    _m("pbs.jobs", "count", "higher", f"node_days_per_s on {PAPER} and {FAULTS}",
       f"little on {SWEEP}", exact=True),
    _m("pbs.jobs_killed", "count", "lower", f"node_days_per_s on {FAULTS}", HEALTHY,
       exact=True),
    _m("pbs.schedule_s", "s", "lower", f"node_days_per_s on {PAPER} and {FAULTS}",
       f"little on {SWEEP}"),
    _m("pbs.delta_sums", "count", "lower", DELTA_SUMS, f"little on {SWEEP}", exact=True),
    _m("pbs.delta_sum_s", "s", "lower", DELTA_SUMS, f"little on {SWEEP}"),
    _m("telemetry.publishes", "count", "lower",
       f"node_days_per_s on {SWEEP} (largest share), and on {FAULTS} via replay", exact=True),
    _m("telemetry.publish_s", "s", "lower",
       f"node_days_per_s on {SWEEP} (largest share), and on {FAULTS} via replay"),
    _m("telemetry.appends", "count", "lower",
       f"node_days_per_s on {SWEEP} (largest share), and on {FAULTS} via replay", exact=True),
    _m("telemetry.store_s", "s", "lower",
       f"node_days_per_s on {SWEEP} (largest share), and on {FAULTS} via replay"),
    _m("telemetry.rules_s", "s", "lower",
       f"node_days_per_s on {SWEEP} (largest share), and on {FAULTS} via replay"),
    _m("telemetry.rollup_s", "s", "lower",
       f"node_days_per_s on {SWEEP} (largest share), and on {FAULTS} via replay"),
    _m("telemetry.alerts", "count", "lower", "a model output: any change is a model change",
       exact=True),
    _m("faults.injected", "count", "lower", f"node_days_per_s on {FAULTS}", HEALTHY,
       exact=True),
    _m("parallel.shards", "count", "lower", f"wall_s on {FAULTS}", NO_PARALLEL, exact=True),
    _m("parallel.execute_s", "s", "lower", f"wall_s and node_days_per_s on {FAULTS}",
       NO_PARALLEL),
    _m("parallel.shard_busy_s", "s", "lower", f"wall_s and node_days_per_s on {FAULTS}",
       NO_PARALLEL, inclusive=True),
    _m("parallel.efficiency", "fraction", "higher", f"wall_s and node_days_per_s on {FAULTS}",
       NO_PARALLEL),
    _m("parallel.result_mb", "MiB", "lower", f"peak_rss_mb and wall_s on {FAULTS}",
       NO_PARALLEL, exact=True),
    _m("parallel.merge_s", "s", "lower", f"wall_s and node_days_per_s on {FAULTS}",
       NO_PARALLEL),
    _m("parallel.replay_s", "s", "lower", f"wall_s and node_days_per_s on {FAULTS}",
       NO_PARALLEL),
    _m("parallel.worker_peak_rss_mb", "MiB", "lower", f"peak_rss_mb on {FAULTS}",
       NO_PARALLEL),
    _m("sweep.cells", "count", "lower", f"wall_s on {SWEEP}", NO_SWEEP, exact=True),
    _m("sweep.executed", "count", "lower", f"wall_s on {SWEEP}", NO_SWEEP, exact=True),
    _m("sweep.cache_hit_ratio", "fraction", "higher", f"wall_s on {SWEEP}", NO_SWEEP,
       exact=True),
    _m("sweep.plan_s", "s", "lower", f"wall_s on {SWEEP}", NO_SWEEP),
    _m("sweep.cache_io_s", "s", "lower", f"wall_s on {SWEEP}", NO_SWEEP),
    _m("stats.campaigns", "count", "lower", f"node_days_per_s on {SWEEP}", NO_SWEEP,
       exact=True),
    _m("stats.metrics_s", "s", "lower", f"node_days_per_s on {SWEEP}", NO_SWEEP),
    _m("analysis.headlines_s", "s", "lower", f"wall_s on {PAPER}",
       "node_days_per_s anywhere"),
    _m("analysis.tables_s", "s", "lower", f"wall_s on {PAPER}", "node_days_per_s anywhere"),
    _m("analysis.figures_s", "s", "lower", f"wall_s on {PAPER}", "node_days_per_s anywhere"),
    _m("analysis.json_s", "s", "lower", f"wall_s on {PAPER}, and on {FAULTS}",
       "node_days_per_s anywhere"),
    _m("trace.overhead", "fraction", "lower", "none: traced / untraced wall_s - 1"),
    _m("trace.coverage", "fraction", "higher", "none: share of traced wall time under a span"),
)


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
