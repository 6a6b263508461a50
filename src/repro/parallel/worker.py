"""Per-shard campaign execution (the unit of parallel work).

``run_shard`` is a pure function of ``(config, shard, n_shards)``: it
builds the shard's submission trace from shard-spawned RNG streams,
runs a private simulator/machine/PBS/collector stack over the shard's
day range on a local clock, and reduces the result to a picklable
:class:`ShardResult` — everything the merge layer needs and nothing it
doesn't (no buses, no live services, no closures).  The stack runs
with no event bus at all: the merge rebuilds a sharded campaign's
telemetry by replaying the merged samples, so nothing reads a worker's.
It is the one campaign that keeps its counter samples, for that merge.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.core.study import StudyConfig, WorkloadStudy
from repro.faults.events import FaultLog
from repro.hpm.collector import SystemSample
from repro.parallel.plan import Shard
from repro.pbs.job import JobRecord
from repro.util.rng import RngStreams, spawn_stream
from repro.workload.traces import (
    CampaignTrace,
    Submission,
    generate_shard_trace,
    generate_trace,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tracing.span import Span

#: Set to a shard index to make that shard's worker die before it runs —
#: the test/CI hook for exercising crashed-worker detection and resume.
CRASH_ENV_VAR = "REPRO_CRASH_SHARD"


class SimulatedWorkerCrash(RuntimeError):
    """Raised (in-process) or simulated via ``os._exit`` (in a worker
    subprocess) when :data:`CRASH_ENV_VAR` targets the current shard."""


@dataclass
class ShardResult:
    """One shard's measured output, on the shard-local clock.

    All times (sample times, job times, probe times, span times) are
    seconds from *shard* start; :mod:`repro.parallel.merge` offsets them
    onto the campaign clock and namespaces the ids.
    """

    shard: Shard
    samples: list[SystemSample]
    records: list[JobRecord]
    utilization_probes: list[tuple[float, int]]
    submissions: list[Submission]
    demand_levels: np.ndarray
    events_processed: int
    #: Spans recorded by the shard's tracer (empty when tracing is off).
    spans: "list[Span]" = field(default_factory=list)
    #: The shard's finalized fault log (None on healthy campaigns).
    faults: FaultLog | None = None


def shard_trace(config: StudyConfig, shard: Shard, n_shards: int) -> CampaignTrace:
    """The shard's submission trace (shard-local times).

    A single-shard plan reproduces the serial campaign trace exactly —
    same streams, same draws — so ``run_parallel_study`` degenerates to
    the byte-identical serial path.  Multi-shard plans draw each shard's
    submissions from its own spawned stream (see
    :func:`repro.workload.traces.generate_shard_trace`).
    """
    if n_shards == 1:
        return generate_trace(
            config.seed,
            n_days=config.n_days,
            n_nodes=config.n_nodes,
            n_users=config.n_users,
            demand_mean=config.demand_mean,
            machine_config=config.machine_config,
        )
    return generate_shard_trace(
        config.seed,
        shard_id=shard.index,
        day_start=shard.day_start,
        day_end=shard.day_end,
        n_days=config.n_days,
        n_nodes=config.n_nodes,
        n_users=config.n_users,
        demand_mean=config.demand_mean,
        machine_config=config.machine_config,
    )


def run_shard(
    config: StudyConfig,
    shard: Shard,
    n_shards: int,
    *,
    tracing: bool = False,
    trace: CampaignTrace | None = None,
    fault_namespace: tuple[int, ...] = (),
) -> ShardResult:
    """Execute one shard and reduce it to its picklable result.

    ``trace`` injects a pre-built shard-local submission stream instead
    of drawing one from the shard's RNG tree — the fleet runner routes a
    shared fleet demand to member machines and hands each member's slice
    in here.  ``fault_namespace`` prefixes the fault-schedule RNG spawn
    key (:func:`repro.util.rng.member_key`) so each fleet member's fault
    realization is independent yet ordering-invariant; the empty default
    keeps single-machine campaigns byte-identical to earlier releases.
    """
    if trace is None:
        trace = shard_trace(config, shard, n_shards)
    shard_config = replace(config, n_days=shard.n_days)
    tracer = None
    if tracing:
        from repro.tracing.tracer import Tracer

        tracer = Tracer()
    # A multi-shard campaign draws each shard's fault schedule from the
    # shard's spawned tree — same identity as its submission trace — so
    # fault realizations never depend on worker count or run order.  The
    # single-shard plan uses the campaign-root tree of its namespace
    # (``()`` = the serial path's tree, byte-identical to it).
    fault_streams = None
    if config.fault_profile is not None and not config.fault_profile.is_null:
        if n_shards > 1:
            fault_streams = spawn_stream(
                config.seed, shard.index, namespace=fault_namespace
            )
        elif fault_namespace:
            fault_streams = RngStreams(config.seed, spawn_key=fault_namespace)
    study = WorkloadStudy(
        shard_config,
        tracer=tracer,
        fault_streams=fault_streams,
        telemetry=False,
        keep_samples=True,
    )
    study.sim.label = f"shard{shard.index}[{shard.day_start}:{shard.day_end}]"
    dataset = study.run(trace)
    return ShardResult(
        shard=shard,
        samples=dataset.collector.samples,
        records=dataset.accounting.records,
        utilization_probes=dataset.utilization_probes,
        submissions=trace.submissions,
        demand_levels=trace.demand_levels,
        events_processed=dataset.events_processed,
        spans=list(tracer.spans) if tracer is not None else [],
        faults=dataset.faults,
    )


def _maybe_simulated_crash(shard_index: int, checkpoint_dir: str | None) -> None:
    """Die if :data:`CRASH_ENV_VAR` targets this shard (once per marker).

    With a checkpoint directory, a ``.crashed-<index>`` marker records
    that the crash already happened so the retry succeeds — modelling a
    transient node loss.  Without one, the crash repeats every attempt
    (a hard-down worker).  In a subprocess the death is ``os._exit``,
    which the task runner sees as a dead worker — exactly what a
    SIGKILLed worker looks like; in-process it raises instead.
    """
    target = os.environ.get(CRASH_ENV_VAR)
    if target is None or int(target) != shard_index:
        return
    if checkpoint_dir is not None:
        marker = os.path.join(checkpoint_dir, f".crashed-{shard_index}")
        if os.path.exists(marker):
            return
        os.makedirs(checkpoint_dir, exist_ok=True)
        with open(marker, "w") as fh:
            fh.write("simulated worker crash\n")
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    raise SimulatedWorkerCrash(f"simulated crash of shard {shard_index} worker")


def _run_shard_task(payload: tuple) -> ShardResult:
    """Top-level task-runner entry point (must be picklable by name).

    Writes the shard's checkpoint *in the worker* the moment the shard
    finishes, so completed work survives even if the parent (or a
    sibling worker) dies before collecting the result.
    """
    config, shard, n_shards, tracing, checkpoint_dir, fingerprint, trace, ns = payload
    _maybe_simulated_crash(shard.index, checkpoint_dir)
    result = run_shard(
        config, shard, n_shards, tracing=tracing, trace=trace, fault_namespace=ns
    )
    if checkpoint_dir is not None:
        from repro.parallel.checkpoint import save_shard_result

        save_shard_result(checkpoint_dir, fingerprint, result)
    return result
