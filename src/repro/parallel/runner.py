"""One task runner, and the sharded campaign on it: plan → execute → merge.

:func:`run_tasks` runs picklable tasks on at most ``workers`` forked
processes and returns their results in task order.  Sharded campaigns,
fleet members, ``sp2-study repeat`` seeds and sweep repeat cells all run
on it, so they share one crash policy: a dead worker costs only the task
it was running, that task is retried after a backoff, and an exception a
task raises reaches the caller as it is.

``run_parallel_study`` is the parallel counterpart of
:meth:`repro.core.study.WorkloadStudy.run`.  Determinism contract:

* the merged dataset is a pure function of ``(config, shard_days)`` —
  the ``workers`` count and the order tasks finish in never change a
  byte of the output (the differential tests assert this);
* a single-shard plan (``shard_days >= n_days``) is byte-identical to
  the serial path (same trace streams, zero offsets);
* multi-shard plans are a different — equally valid — statistical
  realization of the same campaign distribution: each shard's
  submissions come from its own spawned stream, and PBS queues drain at
  shard boundaries (see docs/PARALLEL.md for the boundary semantics).

Resilience (docs/FAULTS.md): with a ``checkpoint_dir``, each worker
persists its shard result the moment it finishes, so a crash loses only
the shard in flight, and a resume recomputes only the shards that never
finished.  Because shard results are pure functions of ``(config, shard,
n_shards)``, an interrupted-then-resumed campaign merges to output
byte-identical to an uninterrupted one.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import time
import traceback
from multiprocessing.connection import Connection, wait
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.core.study import StudyConfig, StudyDataset

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.telemetry.bus import EventBus
    from repro.workload.traces import CampaignTrace
from repro.parallel.checkpoint import config_fingerprint, load_shard_result
from repro.parallel.merge import merge_shard_results
from repro.parallel.plan import Shard, plan_shards
from repro.parallel.worker import ShardResult, SimulatedWorkerCrash, _run_shard_task

#: Wait before the first retry; each later attempt waits twice as long.
BACKOFF_SECONDS = 1.0

#: Fork where available: a worker inherits the loaded modules, and tasks
#: read only their payload, so forking is cheap and deterministic here.
_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)


class WorkerCrashError(RuntimeError):
    """Tasks whose worker process died on every attempt.  ``failed``
    names them: task positions, or what the caller calls them."""

    def __init__(self, failed: list, attempts: int, what: str = "tasks") -> None:
        self.failed = failed
        self.attempts = attempts
        super().__init__(f"{what} {failed} failed after {attempts} attempt(s)")


class RemoteTraceback(Exception):
    """Where in the worker a task's exception was raised: the cause the
    runner attaches to the exception it re-raises."""

    def __str__(self) -> str:
        return self.args[0]


class ShardExecutionError(RuntimeError):
    """Shards still failing after every retry attempt.  ``checkpoint_dir``
    holds the shards that finished (None = the run kept no checkpoints)."""

    def __init__(
        self, shard_indices: list[int], attempts: int, checkpoint_dir: str | None = None
    ) -> None:
        self.shard_indices = shard_indices
        self.attempts = attempts
        self.checkpoint_dir = checkpoint_dir
        message = f"shards {shard_indices} failed after {attempts} attempt(s)"
        if checkpoint_dir is not None:
            message += "; completed shards are checkpointed — fix the cause and rerun with resume"
        super().__init__(message)


def _serve(task: Callable, conn: Connection, parent_end: Connection) -> None:
    """A worker: run each payload the parent sends, until ``None``.

    Forked siblings inherit the parent's end of this worker's pipe, so
    the parent stops workers with the ``None`` sentinel, never by
    closing pipes.  The worker closes its own copy of the parent's end,
    so that it exits, at its next read or reply, if the parent dies.
    """
    parent_end.close()
    while True:
        try:
            payload = conn.recv()
        except EOFError:
            return
        if payload is None:
            return
        try:
            reply = (True, task(payload))
        except Exception as exc:  # noqa: BLE001 - the caller re-raises it
            reply = (False, (exc, traceback.format_exc()))
        # Hold neither the payload nor the result while idle.
        payload = None
        try:
            conn.send(reply)
        except OSError:
            return
        except Exception as exc:  # noqa: BLE001 - the reply does not pickle
            conn.send((False, (exc, traceback.format_exc())))
        reply = None


def _run_here(task: Callable, payloads: Sequence, indices: list[int], results: list) -> list[int]:
    """One attempt in this process; returns the tasks that crashed."""
    crashed = []
    for i in indices:
        try:
            results[i] = task(payloads[i])
        except SimulatedWorkerCrash:
            crashed.append(i)
    return crashed


def _run_forked(
    task: Callable, payloads: Sequence, indices: list[int], results: list, workers: int
) -> list[int]:
    """One attempt on ``min(workers, len(indices))`` forked workers.

    Each worker takes one task at a time over its own pipe.  A worker
    that dies costs only its task in flight, and is replaced only while
    tasks remain.  Returns the tasks whose worker died.
    """
    queue = indices[::-1]  # pop() hands tasks out in order
    crashed: list[int] = []
    live: dict[Connection, Any] = {}  # a worker's pipe end → its process
    busy: dict[Connection, int] = {}  # → the task it is running

    def fork() -> None:
        conn, child = _CONTEXT.Pipe()
        proc = _CONTEXT.Process(target=_serve, args=(task, child, conn))
        proc.start()
        child.close()
        live[conn] = proc

    try:
        for _ in range(min(workers, len(queue))):
            fork()
        while queue or busy:
            for conn in live:
                if queue and conn not in busy:
                    busy[conn] = i = queue.pop()
                    with contextlib.suppress(OSError):  # dead: wait() reads its EOF
                        conn.send(payloads[i])
            for conn in wait(list(busy)):
                i = busy.pop(conn)
                try:
                    ok, value = conn.recv()
                except (EOFError, OSError):
                    crashed.append(i)
                    live.pop(conn).join()
                    conn.close()
                    if queue:
                        fork()
                    continue
                if not ok:
                    exc, where = value
                    raise exc from RemoteTraceback(where)
                results[i] = value
    finally:
        for conn, proc in live.items():
            if conn in busy:
                proc.terminate()
            else:
                with contextlib.suppress(OSError):
                    conn.send(None)
        for conn, proc in live.items():
            proc.join()
            conn.close()
    return crashed


def run_tasks(
    task: Callable[[Any], Any],
    payloads: Sequence[Any],
    *,
    workers: int = 1,
    max_attempts: int = 3,
) -> list:
    """``[task(p) for p in payloads]`` on at most ``workers`` processes.

    Results come back in task order.  A task whose worker process dies
    is run again on the next attempt, after ``BACKOFF_SECONDS ×
    2^(attempt-2)``; tasks still dying after ``max_attempts`` raise
    :class:`WorkerCrashError`.  An exception a task raises reaches the
    caller with its type, and costs no retry.  One worker runs every
    attempt in this process, where :class:`SimulatedWorkerCrash` stands
    for a dead worker; more fork workers on every attempt, retries
    included, so a task that kills its process never takes this one
    down.  Payloads must pickle and not be ``None``; ``task`` must
    pickle by name where fork is unavailable.
    """
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be at least 1, got {max_attempts}")
    results: list = [None] * len(payloads)
    pending = list(range(len(payloads)))
    for attempt in range(1, max_attempts + 1):
        if attempt > 1:
            time.sleep(BACKOFF_SECONDS * 2 ** (attempt - 2))
        if workers <= 1:
            pending = _run_here(task, payloads, pending, results)
        else:
            pending = _run_forked(task, payloads, pending, results, workers)
        if not pending:
            return results
    raise WorkerCrashError(pending, max_attempts)


def execute_shards(
    config: StudyConfig,
    shards: list[Shard],
    *,
    workers: int = 1,
    tracing: bool = False,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    max_attempts: int = 3,
    traces: "list | None" = None,
    fault_namespace: tuple[int, ...] = (),
) -> list[ShardResult]:
    """Run every shard, in-process or on :func:`run_tasks`' workers.

    Results come back in shard-index order regardless of completion
    order, so the merge sees the same sequence either way.  With a
    ``checkpoint_dir``, finished shards are persisted worker-side and —
    when ``resume`` is set — loaded instead of recomputed.  A shard
    whose worker dies is retried up to ``max_attempts`` times total;
    shards still failing then raise :class:`ShardExecutionError`.

    ``traces`` (shard-index-aligned, shard-local clocks) injects
    pre-built submission streams instead of per-shard generation — the
    fleet runner's path.  Checkpoints identify a shard by config alone,
    so injected traces and checkpointing are mutually exclusive.
    """
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
    shard_traces = traces if traces is not None else [None] * n_shards
    payloads = [
        (config, s, n_shards, tracing, checkpoint_dir, fingerprint, t, fault_namespace)
        for s, t in zip(shards, shard_traces)
        if s.index not in done
    ]
    try:
        results = run_tasks(_run_shard_task, payloads, workers=workers, max_attempts=max_attempts)
    except WorkerCrashError as err:
        failed = [pending[i].index for i in err.failed]
        raise ShardExecutionError(failed, err.attempts, checkpoint_dir) from None
    done.update((shard.index, result) for shard, result in zip(pending, results))
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
    trace: "CampaignTrace | None" = None,
    fault_namespace: tuple[int, ...] = (),
    telemetry: bool = True,
    bus_hook: Callable[[EventBus], None] | None = None,
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
    max_attempts:
        Attempts per shard whose worker dies (:func:`run_tasks`).
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
    bus_hook:
        Called with the replay's bus before its first event, so a live
        consumer sees the merged campaign's stream.
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
        traces=traces,
        fault_namespace=fault_namespace,
    )
    return merge_shard_results(
        config, results, tracing=tracing, telemetry=telemetry, bus_hook=bus_hook
    )
