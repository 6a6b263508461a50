"""The sharded campaign runner: plan → execute → merge.

``run_parallel_study`` is the parallel counterpart of
:meth:`repro.core.study.WorkloadStudy.run`.  Determinism contract:

* the merged dataset is a pure function of ``(config, shard_days)`` —
  the ``workers`` count and the pool's scheduling order never change a
  byte of the output (the differential tests assert this);
* a single-shard plan (``shard_days >= n_days``) is byte-identical to
  the serial path (same trace streams, zero offsets);
* multi-shard plans are a different — equally valid — statistical
  realization of the same campaign distribution: each shard's
  submissions come from its own spawned stream, and PBS queues drain at
  shard boundaries (see docs/PARALLEL.md for the boundary semantics).

Resilience (docs/FAULTS.md): with a ``checkpoint_dir``, each worker
persists its shard result the moment it finishes; a worker crash mid
campaign loses only the in-flight shards.  The runner detects the broken
pool, backs off exponentially, reloads whatever the dead batch managed
to checkpoint, and retries the remainder — and because shard results are
pure functions of ``(config, shard, n_shards)``, an interrupted-then
resumed campaign merges to output byte-identical to an uninterrupted
one.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING

from repro.core.study import StudyConfig, StudyDataset

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.workload.traces import CampaignTrace
from repro.parallel.checkpoint import config_fingerprint, load_shard_result
from repro.parallel.merge import merge_shard_results
from repro.parallel.plan import Shard, plan_shards
from repro.parallel.worker import ShardResult, SimulatedWorkerCrash, _run_shard_task


class ShardExecutionError(RuntimeError):
    """Shards still failing after every retry attempt.  ``checkpoint_dir``
    holds the shards that finished (None = the run kept no checkpoints)."""

    def __init__(
        self, shard_indices: list[int], attempts: int, checkpoint_dir: str | None = None
    ) -> None:
        self.shard_indices = shard_indices
        self.attempts = attempts
        self.checkpoint_dir = checkpoint_dir
        super().__init__(
            f"shards {shard_indices} failed after {attempts} attempt(s); "
            "completed shards are checkpointed — fix the cause and rerun "
            "with resume"
        )


def _pool_context() -> multiprocessing.context.BaseContext:
    """Fork where available (cheap, deterministic here: workers only read
    the pickled payload), else spawn.  ``REPRO_MP_START`` overrides the
    choice for portability tests and operational tuning."""
    start_method = os.environ.get("REPRO_MP_START")
    if start_method is None:
        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else "spawn"
    return multiprocessing.get_context(start_method)


def _run_batch(payloads: list[tuple], *, workers: int) -> "list[ShardResult | None]":
    """One attempt over a batch of shard payloads, index-aligned.

    A crashed worker (``os._exit`` → ``BrokenProcessPool``) or an
    in-process simulated crash yields ``None`` in that slot; completed
    slots keep their results, so one dying worker doesn't discard its
    siblings' finished work.
    """
    results: "list[ShardResult | None]" = [None] * len(payloads)
    n_procs = min(workers, len(payloads))
    if n_procs <= 1:
        for i, payload in enumerate(payloads):
            try:
                results[i] = _run_shard_task(payload)
            except SimulatedWorkerCrash:
                results[i] = None
        return results
    with ProcessPoolExecutor(max_workers=n_procs, mp_context=_pool_context()) as pool:
        futures = [pool.submit(_run_shard_task, payload) for payload in payloads]
        for i, future in enumerate(futures):
            try:
                results[i] = future.result()
            except (BrokenProcessPool, SimulatedWorkerCrash):
                results[i] = None
    return results


def execute_shards(
    config: StudyConfig,
    shards: list[Shard],
    *,
    workers: int = 1,
    tracing: bool = False,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    max_attempts: int = 3,
    backoff_seconds: float = 1.0,
    traces: "list | None" = None,
    fault_namespace: tuple[int, ...] = (),
) -> list[ShardResult]:
    """Run every shard, in-process or across a worker pool.

    Results come back in shard-index order regardless of completion
    order, so the merge sees the same sequence either way.  With a
    ``checkpoint_dir``, finished shards are persisted worker-side and —
    when ``resume`` is set — loaded instead of recomputed.  Failed
    shards are retried up to ``max_attempts`` times total, sleeping
    ``backoff_seconds × 2^(attempt-1)`` between attempts; shards still
    failing then raise :class:`ShardExecutionError`.

    ``traces`` (shard-index-aligned, shard-local clocks) injects
    pre-built submission streams instead of per-shard generation — the
    fleet runner's path.  Checkpoints identify a shard by config alone,
    so injected traces and checkpointing are mutually exclusive.
    """
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be at least 1, got {max_attempts}")
    if resume and checkpoint_dir is None:
        raise ValueError("resume requires a checkpoint_dir")
    if traces is not None:
        if len(traces) != len(shards):
            raise ValueError(
                f"got {len(traces)} traces for {len(shards)} shards"
            )
        if checkpoint_dir is not None:
            raise ValueError(
                "checkpointing identifies shards by config alone and cannot "
                "be combined with injected traces"
            )
    n_shards = len(shards)
    fingerprint = ""
    if checkpoint_dir is not None:
        fingerprint = config_fingerprint(config, n_shards)
        os.makedirs(checkpoint_dir, exist_ok=True)

    done: dict[int, ShardResult] = {}
    if resume and checkpoint_dir is not None:
        for shard in shards:
            cached = load_shard_result(checkpoint_dir, fingerprint, shard.index)
            if cached is not None:
                done[shard.index] = cached

    pending = [s for s in shards if s.index not in done]
    attempt = 0
    while pending:
        attempt += 1
        if attempt > 1:
            delay = backoff_seconds * 2 ** (attempt - 2)
            if delay > 0:
                time.sleep(delay)
        by_index = (
            {shard.index: trace for shard, trace in zip(shards, traces)}
            if traces is not None
            else {}
        )
        payloads = [
            (
                config,
                shard,
                n_shards,
                tracing,
                checkpoint_dir if checkpoint_dir is not None else None,
                fingerprint,
                by_index.get(shard.index),
                fault_namespace,
            )
            for shard in pending
        ]
        batch = _run_batch(payloads, workers=workers)
        failed: list[Shard] = []
        for shard, result in zip(pending, batch):
            if result is not None:
                done[shard.index] = result
            else:
                failed.append(shard)
        if failed and checkpoint_dir is not None:
            # A broken pool loses every still-queued future, but workers
            # checkpoint results themselves — harvest what the dead
            # batch actually finished before recomputing.
            still_failed = []
            for shard in failed:
                cached = load_shard_result(checkpoint_dir, fingerprint, shard.index)
                if cached is not None:
                    done[shard.index] = cached
                else:
                    still_failed.append(shard)
            failed = still_failed
        pending = failed
        if pending and attempt >= max_attempts:
            raise ShardExecutionError([s.index for s in pending], attempt, checkpoint_dir)
    return [done[s.index] for s in shards]


def run_parallel_study(
    config: StudyConfig | None = None,
    *,
    workers: int = 1,
    shard_days: int | None = None,
    tracing: bool = False,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    max_attempts: int = 3,
    backoff_seconds: float = 1.0,
    trace: "CampaignTrace | None" = None,
    fault_namespace: tuple[int, ...] = (),
    telemetry: bool = True,
) -> StudyDataset:
    """Run a campaign as independent day-range shards and merge.

    Parameters
    ----------
    workers:
        Worker processes for shard execution.  ``1`` runs the same
        shards serially in-process; the merged output is identical.
    shard_days:
        Day-range width per shard (default
        :data:`repro.parallel.plan.DEFAULT_SHARD_DAYS`).  Part of the
        experiment definition: changing it changes the realization the
        way a different seed would, changing ``workers`` never does.
    tracing:
        Give each shard a span tracer and merge the spans (shard-offset
        span ids) into ``dataset.tracer``.
    checkpoint_dir:
        Directory for per-shard checkpoint files (crash tolerance).
    resume:
        Load valid checkpoints from ``checkpoint_dir`` instead of
        recomputing those shards.
    max_attempts / backoff_seconds:
        Retry policy for crashed shard workers (exponential backoff).
    trace:
        A pre-built campaign trace to replay instead of per-shard
        generation (fleet members route a shared demand stream here).
        Split into day-range shards by
        :func:`repro.workload.traces.slice_trace`; incompatible with
        checkpointing.
    fault_namespace:
        RNG spawn-key prefix for fault schedules (fleet members pass
        :func:`repro.util.rng.member_key`; the empty default is the
        single-machine tree).
    telemetry:
        Rebuild the campaign's telemetry by replaying the merged samples
        (``False``: no replay, ``dataset.telemetry`` is None).  Shard
        workers run with no bus either way.
    """
    config = config or StudyConfig()
    shards = plan_shards(config.n_days, shard_days)
    traces = None
    if trace is not None:
        from repro.workload.traces import slice_trace

        if trace.n_days != config.n_days or trace.n_nodes != config.n_nodes:
            raise ValueError(
                f"trace covers {trace.n_days} days on {trace.n_nodes} nodes, "
                f"config wants {config.n_days} days on {config.n_nodes}"
            )
        traces = [slice_trace(trace, s.day_start, s.day_end) for s in shards]
    results = execute_shards(
        config,
        shards,
        workers=workers,
        tracing=tracing,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        max_attempts=max_attempts,
        backoff_seconds=backoff_seconds,
        traces=traces,
        fault_namespace=fault_namespace,
    )
    return merge_shard_results(config, results, tracing=tracing, telemetry=telemetry)
