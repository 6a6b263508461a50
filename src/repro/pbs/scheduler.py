"""The PBS server: submission, scheduling, prologue/epilogue.

Drives jobs through the machine on the simulation clock:

* ``submit`` queues a job and pokes the scheduler;
* the scheduler starts every startable job (FIFO + backfill, draining
  for wide jobs — policy in :class:`~repro.pbs.queue.JobQueue`);
* job start = allocate dedicated nodes, pin memory, run the *prologue*
  (one counter read over the job's nodes, §3), install the job's steady
  counter rates on its nodes, schedule the end event;
* job end = read the same nodes again (*epilogue*), diff the two reads,
  release nodes and memory, append the accounting record, reschedule.

Each transition touches the counter store a fixed number of times,
whatever the job's width: the prologue or epilogue read syncs the job's
slots, and one :meth:`~repro.power2.batch.CounterStore.install` over
the job's slot array changes their rates (a kill, which reads nothing,
syncs them with one ``sync_slots`` first).

Paging is applied here, not in the profile: the job's per-node memory
demand is compared against node memory, and an oversubscribed job has
its rates transformed (user progress slowed, system-mode fault work
added) by :func:`apply_paging_to_rates` — this is how the §6 cliff
reaches the counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.cluster.machine import SP2Machine
from repro.pbs.accounting import AccountingLog
from repro.pbs.job import ExecutionProfile, JobRecord, JobSpec, JobState
from repro.pbs.queue import JobQueue
from repro.power2.config import MachineConfig
from repro.power2.counters import FLAT_NAMES, rates_vector
from repro.power2.node import (
    DMA_TRANSFER_BYTES,
    PAGING_CPU_BUSY_FRACTION,
    PAGING_SYSTEM_FXU_RATE,
    PAGING_SYSTEM_ICU_RATE,
    compute_paging_state,
)
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry.bus import EventBus
    from repro.tracing.span import Span
    from repro.tracing.tracer import Tracer


def apply_paging_to_rates(
    user_rates: np.ndarray,
    system_rates: np.ndarray,
    demand_bytes: float,
    config: MachineConfig,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Transform a job's steady rates for memory oversubscription.

    Returns ``(user, system, slowdown)`` where user rates are scaled by
    ``1 - stolen_fraction`` (user-mode progress only happens in the wall
    time paging leaves over) and system rates gain the fault-service
    instruction and cycle rates plus the page-traffic DMA rates.
    """
    paging = compute_paging_state(demand_bytes, config.memory_bytes, config)
    if paging.fault_rate_per_s == 0.0:
        return user_rates, system_rates, 1.0
    stolen = paging.stolen_fraction
    remain = 1.0 - stolen
    faults = paging.fault_rate_per_s
    page_transfers = faults * config.tlb.page_bytes / DMA_TRANSFER_BYTES
    fault_rates = rates_vector(
        {
            "fxu0": stolen * PAGING_SYSTEM_FXU_RATE * 0.5,
            "fxu1": stolen * PAGING_SYSTEM_FXU_RATE * 0.5,
            "icu0": stolen * PAGING_SYSTEM_ICU_RATE,
            "cycles": stolen * config.clock_hz * PAGING_CPU_BUSY_FRACTION,
            "dma_read": page_transfers * 0.4,
            "dma_write": page_transfers * 0.6,
        }
    )
    return user_rates * remain, system_rates + fault_rates, remain


def phase_segments(
    profile, config: MachineConfig, wall_seconds: float
) -> list[tuple[str, float]]:
    """Attribute a job's wall time to compute / switch-wait / io / paging.

    The campaign fast path homogenizes a job into steady counter rates,
    so the per-phase structure is reconstructed from the profile's
    fraction diagnostics plus the same paging physics PBS applied at
    start: the stolen fraction of wall time is paging, the remainder is
    split by the profile's compute/comm/io fractions.  Profiles without
    fraction diagnostics attribute everything to compute.
    """
    paging = compute_paging_state(
        profile.memory_bytes_per_node, config.memory_bytes, config
    )
    stolen = paging.stolen_fraction
    active = wall_seconds * (1.0 - stolen)
    compute = getattr(profile, "compute_fraction", 1.0)
    comm = getattr(profile, "comm_fraction", 0.0)
    io = getattr(profile, "io_fraction", 0.0)
    norm = compute + comm + io
    if norm <= 0:
        compute, norm = 1.0, 1.0
    segments = [
        ("compute", active * compute / norm),
        ("switch-wait", active * comm / norm),
        ("io", active * io / norm),
        ("paging", wall_seconds * stolen),
    ]
    return [(name, seconds) for name, seconds in segments if seconds > 0.0]


@dataclass
class RunningJob:
    """Everything the server holds about one job in execution."""

    job: JobSpec
    alloc_id: int
    node_ids: tuple[int, ...]
    #: ``node_ids`` as a counter-store index array (slot i is node i).
    slots: np.ndarray
    start_time: float
    #: Prologue counter read (§3): ``(len(node_ids), 44)`` int64, one
    #: row per node in ``node_ids`` order.
    prologue: np.ndarray
    #: The scheduled epilogue event — cancelled if the job is killed.
    end_event: "object | None" = None
    #: Effective per-node memory demand (profile demand × any storm
    #: pressure at start time); released symmetrically at end/kill.
    memory_per_node: float = 0.0


class PBSServer:
    """Job manager for one :class:`~repro.cluster.machine.SP2Machine`."""

    def __init__(
        self,
        sim: Simulator,
        machine: SP2Machine,
        *,
        queue: JobQueue | None = None,
        accounting: AccountingLog | None = None,
        bus: "EventBus | None" = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.sim = sim
        self.machine = machine
        # NOT `queue or JobQueue()`: an empty JobQueue is falsy (__len__).
        self.queue = queue if queue is not None else JobQueue()
        self.accounting = accounting if accounting is not None else AccountingLog()
        #: Telemetry event bus; job lifecycle events are published here.
        self.bus = bus
        #: Span tracer; each job grows one span tree (root at submit,
        #: queued/running states, phase attribution at epilogue).
        self.tracer = tracer
        self.running: dict[int, RunningJob] = {}
        #: Nodes held by running jobs, kept as jobs start and stop.
        self._busy_nodes = 0
        #: Open (root, state) spans per traced job id.
        self._job_spans: dict[int, tuple["Span", "Span"]] = {}
        self._next_job_id = 1
        #: Optional observer called with each finished JobRecord.
        self.on_job_end: Callable[[JobRecord], None] | None = None
        # Failure handling (driven by repro.faults.injector).
        #: How many times a node-failure kill may requeue a job.
        self.max_retries = 3
        #: Memory-demand multiplier applied to newly started jobs
        #: (paging-storm episodes set it above 1).
        self.memory_pressure = 1.0
        self.jobs_killed = 0
        self.jobs_requeued = 0
        self.retries_exhausted = 0

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self, user: int, app_name: str, nodes: int, profile: ExecutionProfile
    ) -> JobSpec:
        """Queue a job at the current simulation time."""
        if nodes > self.machine.n_nodes:
            raise ValueError(
                f"job wants {nodes} nodes; machine has {self.machine.n_nodes}"
            )
        job = JobSpec(
            job_id=self._next_job_id,
            user=user,
            app_name=app_name,
            nodes_requested=nodes,
            submit_time=self.sim.now,
            profile=profile,
        )
        self._next_job_id += 1
        self.queue.submit(job)
        self._open_job_spans(job)
        self.schedule_pass()
        return job

    def _open_job_spans(self, job: JobSpec) -> None:
        if self.tracer is None or not self.tracer.enabled:
            return
        from repro.tracing.span import CAT_JOB, CAT_JOB_STATE

        # One tree per job: the root is deliberately unparented so a
        # job's whole life is a self-contained trace process.
        root = self.tracer.begin(
            f"job-{job.job_id}",
            CAT_JOB,
            parent=None,
            job_id=job.job_id,
            user=job.user,
            app=job.app_name,
            nodes=job.nodes_requested,
        )
        queued = self.tracer.begin("queued", CAT_JOB_STATE, parent=root)
        self._job_spans[job.job_id] = (root, queued)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_pass(self) -> int:
        """Start every job the policy allows; returns how many started."""
        if self.tracer is None or not self.tracer.enabled:
            return self._schedule_pass()
        from repro.tracing.span import CAT_SCHED

        with self.tracer.span("schedule-pass", CAT_SCHED) as span:
            started = self._schedule_pass()
            span.args["started"] = started
            span.args["queued"] = len(self.queue)
        return started

    def _schedule_pass(self) -> int:
        started = 0
        while True:
            job = self.queue.pop_startable(self.machine.n_free)
            if job is None:
                break
            self._start_job(job)
            started += 1
        return started

    def _start_job(self, job: JobSpec) -> None:
        now = self.sim.now
        alloc_id, node_ids = self.machine.allocate(job.nodes_requested)
        job.state = JobState.RUNNING

        profile = job.profile
        # A paging storm inflates every starting job's resident demand —
        # the injected §6 oversubscription pathology.
        demand = profile.memory_bytes_per_node * self.memory_pressure
        user, system, _ = apply_paging_to_rates(
            profile.user_rates, profile.system_rates, demand, self.machine.config
        )
        walltime = profile.walltime_seconds

        # A degraded switch stretches the communication share of the
        # job's wall time; user-mode progress slows by the same factor
        # (total user counts are conserved: rate/slow × wall×slow).
        degradation = self.machine.switch.degradation
        if degradation > 1.0:
            comm = getattr(profile, "comm_fraction", 0.0)
            slow = 1.0 + comm * (degradation - 1.0)
            if slow > 1.0:
                user = user / slow
                walltime *= slow

        # Prologue: read the allocated nodes' counters (§3); the read
        # syncs them, so the job's rates go in without another sync.
        slots = np.asarray(node_ids, dtype=np.intp)
        prologue = self.machine.read_counters(slots, now)
        self.machine.store.install(slots, user, system, busy=True)
        nodes = self.machine.nodes
        for nid in node_ids:
            nodes[nid].assign_memory(demand)

        running = RunningJob(
            job=job,
            alloc_id=alloc_id,
            node_ids=node_ids,
            slots=slots,
            start_time=now,
            prologue=prologue,
            memory_per_node=demand,
        )
        self.running[job.job_id] = running
        self._busy_nodes += len(node_ids)
        if job.job_id in self._job_spans:
            from repro.tracing.span import CAT_JOB_SNAPSHOT, CAT_JOB_STATE

            root, queued = self._job_spans[job.job_id]
            self.tracer.finish(queued, end=now)
            running_span = self.tracer.begin(
                "running", CAT_JOB_STATE, parent=root, node_ids=list(node_ids)
            )
            self.tracer.record(
                "prologue", CAT_JOB_SNAPSHOT, parent=running_span, nodes=len(node_ids)
            )
            self._job_spans[job.job_id] = (root, running_span)
        if self.bus is not None:
            from repro.telemetry.bus import TOPIC_JOB_START, JobStarted

            self.bus.publish(
                TOPIC_JOB_START,
                JobStarted(
                    time=now,
                    job_id=job.job_id,
                    user=job.user,
                    app_name=job.app_name,
                    nodes_requested=job.nodes_requested,
                    node_ids=node_ids,
                ),
            )
        running.end_event = self.sim.schedule(
            walltime,
            lambda sim, job_id=job.job_id: self._end_job(job_id),
            name=f"end-job-{job.job_id}",
        )

    def _end_job(self, job_id: int) -> None:
        now = self.sim.now
        rj = self.running.pop(job_id)
        job, alloc_id, node_ids = rj.job, rj.alloc_id, rj.node_ids
        self._busy_nodes -= len(node_ids)
        start_time, prologue = rj.start_time, rj.prologue
        job.state = JobState.EXITED

        # Epilogue: read the same nodes again, diff against the prologue (§3).
        epilogue = self.machine.read_counters(rj.slots, now)
        deltas = epilogue - prologue
        if (deltas < 0).any():
            row, col = np.argwhere(deltas < 0)[0]
            raise ValueError(
                f"job {job_id}: node {node_ids[row]} counter {FLAT_NAMES[col]} "
                f"went backwards ({prologue[row, col]} -> {epilogue[row, col]})"
            )
        self.machine.store.install(rj.slots, None, None, busy=False)  # idle again
        nodes = self.machine.nodes
        for nid in node_ids:
            nodes[nid].release_memory(rj.memory_per_node)

        self.machine.release(alloc_id)
        record = JobRecord(
            job_id=job.job_id,
            user=job.user,
            app_name=job.app_name,
            nodes_requested=job.nodes_requested,
            node_ids=node_ids,
            submit_time=job.submit_time,
            start_time=start_time,
            end_time=now,
            deltas=deltas,
        )
        self.accounting.append(record)
        if job_id in self._job_spans:
            from repro.tracing.span import CAT_JOB_PHASE, CAT_JOB_SNAPSHOT

            root, running_span = self._job_spans.pop(job_id)
            # Synthesize the wall-time attribution segments the critical
            # path analyzer consumes, laid end-to-end under `running`.
            cursor = start_time
            for name, seconds in phase_segments(
                job.profile, self.machine.config, now - start_time
            ):
                self.tracer.record(
                    name,
                    CAT_JOB_PHASE,
                    parent=running_span,
                    start=cursor,
                    duration=seconds,
                )
                cursor += seconds
            self.tracer.record(
                "epilogue", CAT_JOB_SNAPSHOT, parent=running_span, nodes=len(node_ids)
            )
            self.tracer.finish(running_span, end=now)
            root.args["mflops"] = round(record.total_mflops, 3)
            self.tracer.finish(root, end=now)
        if self.bus is not None:
            from repro.telemetry.bus import TOPIC_JOB_END, JobEnded

            self.bus.publish(TOPIC_JOB_END, JobEnded(time=now, record=record))
        if self.on_job_end is not None:
            self.on_job_end(record)
        self.schedule_pass()

    # ------------------------------------------------------------------
    # Failure handling (node crashes, driven by the fault injector)
    # ------------------------------------------------------------------
    def kill_jobs_on_node(self, node_id: int) -> list[JobSpec]:
        """Kill every running job allocated on ``node_id``.

        MPI/PVM jobs could not survive a node loss (§6: they could not
        even be checkpointed), so the whole job dies, its *surviving*
        nodes return to the pool, and the job is requeued — up to
        :attr:`max_retries` times — as the resubmission users performed
        by hand.  Returns the killed jobs.
        """
        doomed = [
            rj.job.job_id for rj in self.running.values() if node_id in rj.node_ids
        ]
        killed = [self._kill_job(job_id, node_id) for job_id in doomed]
        if killed:
            # The dead job's surviving nodes just came back to the pool.
            self.schedule_pass()
        return killed

    def _kill_job(self, job_id: int, node_id: int) -> JobSpec:
        now = self.sim.now
        rj = self.running.pop(job_id)
        self._busy_nodes -= len(rj.node_ids)
        job = rj.job
        if rj.end_event is not None:
            rj.end_event.cancel()
        # No epilogue: a dead job leaves no accounting record, exactly
        # like the real failed runs the §6 logs never captured.  Nodes
        # are synced and returned to idle; the crashed node itself is
        # withheld from the free pool by the machine.
        store = self.machine.store
        store.sync_slots(rj.slots, now)
        store.install(rj.slots, None, None, busy=False)
        nodes = self.machine.nodes
        for nid in rj.node_ids:
            nodes[nid].release_memory(rj.memory_per_node)
        self.machine.release(rj.alloc_id)
        self.jobs_killed += 1

        if job_id in self._job_spans:
            root, running_span = self._job_spans.pop(job_id)
            running_span.args["killed_by_node"] = node_id
            self.tracer.finish(running_span, end=now)
            root.args["killed"] = True
            self.tracer.finish(root, end=now)

        requeued = job.retries < self.max_retries
        if requeued:
            job.retries += 1
            job.state = JobState.QUEUED
            self.queue.submit(job)
            self.jobs_requeued += 1
            self._open_job_spans(job)
        else:
            job.state = JobState.KILLED
            self.retries_exhausted += 1

        if self.bus is not None:
            from repro.telemetry.bus import TOPIC_JOB_KILLED, JobKilled

            self.bus.publish(
                TOPIC_JOB_KILLED,
                JobKilled(
                    time=now,
                    job_id=job.job_id,
                    user=job.user,
                    app_name=job.app_name,
                    node_id=node_id,
                    requeued=requeued,
                ),
            )
        return job

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_running(self) -> int:
        return len(self.running)

    def busy_node_count(self) -> int:
        """Nodes held by running jobs."""
        return self._busy_nodes
