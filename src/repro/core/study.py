"""Run the measurement campaign end-to-end.

The study replays a :class:`~repro.workload.traces.CampaignTrace`
through PBS on an :class:`~repro.cluster.machine.SP2Machine`, with the
RS2HPM collector sampling every node at 15-minute intervals — the same
three data paths §3 describes (system-wide cron samples, per-job
prologue/epilogue deltas, and per-node daemons), feeding the same
analyses §5–§6 report.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, NamedTuple

import numpy as np

from repro.cluster.machine import SP2Machine
from repro.faults.events import FaultLog
from repro.faults.profile import PROFILES, FaultProfile
from repro.power2.config import POWER2_590, SP2_SWITCH, MachineConfig, SwitchConfig
from repro.power2.counters import FLAT_COLUMN, FLAT_NAMES
from repro.power2.node import DMA_TRANSFER_BYTES
from repro.hpm.collector import SAMPLE_INTERVAL_SECONDS, IntervalCounts, SystemCollector
from repro.hpm.derived import DerivedRates, column_rates, row_rates
from repro.pbs.accounting import AccountingLog
from repro.pbs.scheduler import PBSServer
from repro.sim.engine import Simulator
from repro.telemetry.bus import EventBus
from repro.telemetry.service import TelemetryService
from repro.tracing.tracer import Tracer
from repro.util.checks import check_number, describe
from repro.util.rng import RngStreams
from repro.workload.traces import SECONDS_PER_DAY, CampaignTrace, generate_trace

#: Queue policies :class:`~repro.pbs.queue.JobQueue` implements.
SCHEDULER_POLICIES = ("backfill", "fifo")


@dataclass(frozen=True)
class StudyConfig:
    """Campaign parameters (defaults = the paper's setup)."""

    seed: int = 0
    n_days: int = 270
    n_nodes: int = 144
    n_users: int = 60
    sample_interval: float = SAMPLE_INTERVAL_SECONDS
    #: Cadence of the utilization probe (how often we record how many
    #: nodes are servicing PBS jobs).
    utilization_probe_interval: float = SAMPLE_INTERVAL_SECONDS
    #: Per-node hardware constants (None = the POWER2/590 defaults).
    machine_config: MachineConfig | None = None
    #: Switch fabric characteristics (None = the SP2 High Performance
    #: Switch defaults) — fleet members override this per machine.
    switch_config: SwitchConfig | None = None
    #: Override the demand model's mean target load (None = default).
    demand_mean: float | None = None
    #: Fault-injection profile (None or a null profile = healthy run;
    #: healthy campaigns are byte-identical to pre-fault releases).
    fault_profile: FaultProfile | None = None
    #: Not a setting: counters always accrue in one
    #: :class:`~repro.power2.batch.CounterStore`.  The constant stays a
    #: field because sweep-cell and checkpoint fingerprints hash this
    #: dataclass's repr, which includes it.
    accrual_backend: str = field(default="auto", init=False)
    #: PBS queue policy: ``backfill`` is NAS's drain-for-wide-jobs
    #: conditional backfill (the paper's setup, §6); ``fifo`` disables
    #: backfill entirely so nothing starts ahead of a blocked head —
    #: the what-if axis scenario sweeps explore.
    scheduler_policy: str = "backfill"
    #: Node count above which a blocked head-of-queue job drains the
    #: machine instead of being backfilled past (§6's 64-node limit).
    scheduler_wide_threshold: int = 64

    def __post_init__(self) -> None:
        # Fail at construction with the offending value, not days deep
        # inside the simulation with an empty-collector traceback.
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.n_days <= 0:
            raise ValueError(f"n_days must be positive, got {self.n_days}")
        if self.n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {self.n_nodes}")
        if self.n_users <= 0:
            raise ValueError(f"n_users must be positive, got {self.n_users}")
        if self.sample_interval <= 0:
            raise ValueError(
                f"sample_interval must be positive, got {self.sample_interval}"
            )
        if self.utilization_probe_interval <= 0:
            raise ValueError(
                "utilization_probe_interval must be positive, got "
                f"{self.utilization_probe_interval}"
            )
        if self.demand_mean is not None and self.demand_mean <= 0:
            raise ValueError(f"demand_mean must be positive, got {self.demand_mean}")
        if self.scheduler_policy not in SCHEDULER_POLICIES:
            raise ValueError(
                f"unknown scheduler_policy {self.scheduler_policy!r}; "
                f"available: {', '.join(SCHEDULER_POLICIES)}"
            )
        if self.scheduler_wide_threshold <= 0:
            raise ValueError(
                "scheduler_wide_threshold must be positive, got "
                f"{self.scheduler_wide_threshold}"
            )


# ----------------------------------------------------------------------
# Named settings → StudyConfig
# ----------------------------------------------------------------------
MB = 1024 * 1024
KB = 1024


@dataclass(frozen=True)
class AxisDef:
    """One named setting: its value type and optional choice set."""

    name: str
    kind: str  # "int" | "float" | "str"
    doc: str
    choices: tuple | None = None
    allow_none: bool = False
    #: Numeric axes demand positive values; the seed axis relaxes this
    #: to non-negative (seed 0 is the paper's default campaign).
    positive: bool = True

    def check(self, value: Any, *, where: str) -> None:
        """Raise a one-line ``ValueError`` unless ``value`` fits."""
        if value is None:
            if self.allow_none:
                return
            raise ValueError(f"{where} {self.name!r} must not be null")
        if self.kind != "str":
            check_number(
                value, f"{where} {self.name!r} value", integer=self.kind == "int",
                positive=self.positive,
            )
        elif not isinstance(value, str):
            raise ValueError(f"{where} {self.name!r} value {describe(value)} is not a string")
        if self.choices is not None and value not in self.choices:
            raise ValueError(
                f"{where} {self.name!r} value {describe(value)} is not one of: "
                f"{', '.join(str(c) for c in self.choices)}"
            )


#: Every named setting: what a sweep fixes (``base``) or varies
#: (``axes``), what a fleet member states, and what the campaign flags
#: set.  Each maps to a :class:`StudyConfig` field in
#: :func:`resolve_config`.
AXES: dict[str, AxisDef] = {
    a.name: a
    for a in (
        AxisDef("seed", "int", "campaign seed", positive=False),
        AxisDef("n_days", "int", "campaign length in days"),
        AxisDef("n_nodes", "int", "cluster size"),
        AxisDef("n_users", "int", "user population size"),
        AxisDef("demand_mean", "float", "demand model's mean target load (workload mix)"),
        AxisDef(
            "fault_profile",
            "str",
            "named fault-injection profile",
            choices=tuple(sorted(PROFILES)),
            allow_none=True,
        ),
        AxisDef(
            "scheduler_policy",
            "str",
            "PBS queue policy",
            choices=tuple(SCHEDULER_POLICIES),
        ),
        AxisDef("scheduler_wide_threshold", "int", "drain threshold in nodes"),
        AxisDef("tlb_entries", "int", "TLB entries per node"),
        AxisDef("page_kb", "int", "page size in kB (a power of two)"),
        AxisDef("memory_mb", "int", "per-node memory in MB"),
        AxisDef("paging_fault_limit", "float", "paging-disk hard faults served per second"),
        AxisDef("switch_latency_us", "float", "switch latency in microseconds"),
        AxisDef("switch_bandwidth_mb_s", "float", "switch bandwidth in MB/s"),
    )
}


def axis_def(name: str, kind: str = "setting") -> AxisDef:
    """The :data:`AXES` entry ``name``, or a one-line ``ValueError``
    calling it an unknown ``kind``."""
    try:
        return AXES[name]
    except KeyError:
        raise ValueError(
            f"unknown {kind} {describe(name)}; known axes: {', '.join(sorted(AXES))}"
        ) from None


def resolve_config(settings: Mapping[str, Any]) -> StudyConfig:
    """The frozen :class:`StudyConfig` for flat named settings.

    The one place named settings (a sweep cell, a fleet member, the
    campaign flags) become a config.  Distinct spellings of one
    experiment (``fault_profile: none`` vs ``null``) resolve to equal
    configs here, which is exactly what cell and checkpoint fingerprints
    hash.  A setting that is absent or ``None`` keeps the paper's value;
    ``n_days`` defaults to the CLI's 30 days.  The config objects
    refuse values they cannot model (a TLB page that is not a power of
    two, say) with a one-line ``ValueError``.
    """
    for key in settings:
        axis_def(key)
    given = {k: v for k, v in settings.items() if v is not None}

    tlb: dict[str, Any] = {}
    if "tlb_entries" in given:
        tlb["entries"] = int(given["tlb_entries"])
    if "page_kb" in given:
        tlb["page_bytes"] = int(given["page_kb"]) * KB
    node: dict[str, Any] = {}
    if "memory_mb" in given:
        node["memory_bytes"] = int(given["memory_mb"]) * MB
    if "paging_fault_limit" in given:
        node["paging_fault_limit"] = float(given["paging_fault_limit"])
    switch: dict[str, Any] = {}
    if "switch_latency_us" in given:
        switch["latency_seconds"] = float(given["switch_latency_us"]) * 1e-6
    if "switch_bandwidth_mb_s" in given:
        switch["bandwidth_bytes_per_s"] = float(given["switch_bandwidth_mb_s"]) * 1e6

    return StudyConfig(
        seed=int(given.get("seed", 0)),
        n_days=int(given.get("n_days", 30)),
        n_nodes=int(given.get("n_nodes", 144)),
        n_users=int(given.get("n_users", 60)),
        machine_config=(
            replace(POWER2_590, tlb=replace(POWER2_590.tlb, **tlb), **node)
            if tlb or node
            else None
        ),
        switch_config=replace(SP2_SWITCH, **switch) if switch else None,
        demand_mean=float(given["demand_mean"]) if "demand_mean" in given else None,
        fault_profile=FaultProfile.resolve(given.get("fault_profile")),
        scheduler_policy=given.get("scheduler_policy", "backfill"),
        scheduler_wide_threshold=int(given.get("scheduler_wide_threshold", 64)),
    )


class _IntervalColumns(NamedTuple):
    """Collector intervals as columns: row ``i`` is interval ``i``."""

    starts: np.ndarray
    ends: np.ndarray
    n_nodes: np.ndarray
    #: ``(n, 44)`` int64: each interval's :attr:`IntervalCounts.sums`.
    sums: np.ndarray

    @classmethod
    def of(cls, ivs: list[IntervalCounts]) -> _IntervalColumns:
        return cls(
            starts=np.array([iv.start for iv in ivs], dtype=np.float64),
            ends=np.array([iv.end for iv in ivs], dtype=np.float64),
            n_nodes=np.array([iv.n_nodes for iv in ivs], dtype=np.int64),
            sums=np.array([iv.sums for iv in ivs], dtype=np.int64).reshape(
                len(ivs), len(FLAT_NAMES)
            ),
        )


@dataclass
class StudyDataset:
    """Everything the campaign measured."""

    config: StudyConfig
    trace: CampaignTrace
    collector: SystemCollector
    accounting: AccountingLog
    #: (probe time, busy node count) pairs.
    utilization_probes: list[tuple[float, int]] = field(default_factory=list)
    #: The streaming observability view built while the campaign ran
    #: (None when it ran with ``telemetry=False``, and for datasets
    #: assembled outside :class:`WorkloadStudy`).
    telemetry: TelemetryService | None = None
    #: Simulator events dispatched during the campaign (attribution /
    #: truncation forensics; 0 for hand-assembled datasets).
    events_processed: int = 0
    #: The span tracer the campaign ran with (None = tracing off).
    tracer: Tracer | None = None
    #: Fault-injection record (None = campaign ran without faults).
    faults: FaultLog | None = None

    #: name → (the collector interval list it was derived from, its
    #: length then, value).  A plain class attribute, not a field (see
    #: :meth:`_derived`).
    _derived_cache = None

    def _derived(self, name: str, build: Callable[[list], object]):
        """``build(intervals)``, computed once per collector interval
        list and length: the collector's list grows in place as it takes
        samples, so a different list or a longer one means recompute."""
        ivs = self.collector.intervals()
        if self._derived_cache is None:
            self._derived_cache = {}
        hit = self._derived_cache.get(name)
        if hit is None or hit[0] is not ivs or hit[1] != len(ivs):
            hit = self._derived_cache[name] = (ivs, len(ivs), build(ivs))
        return hit[2]

    def _columns(self) -> _IntervalColumns:
        """The collector's intervals as one columnar table, built once
        per interval list and length (read-only by convention)."""
        return self._derived("columns", _IntervalColumns.of)

    # ------------------------------------------------------------------
    # Day-level series (the paper's Figure 1 axes)
    # ------------------------------------------------------------------
    def daily_rates(self) -> list[DerivedRates]:
        """Per-day derived rates over all nodes (per-node convention).

        Intervals are grouped by the calendar day their *start* falls in
        rather than by position, so collector gaps (dropped passes under
        fault injection) don't shift later days; a gap-spanning interval
        simply contributes its counts to the day it started in.
        """
        return list(self._derived("daily_rates", self._daily_rates))

    def _daily_rates(self, ivs: list) -> list[DerivedRates]:
        t = self._columns()
        days = (t.starts // SECONDS_PER_DAY).astype(np.intp)
        order = np.argsort(days, kind="stable")
        # Day d's intervals are order[bounds[d]:bounds[d + 1]], in list order.
        bounds = np.searchsorted(days[order], np.arange(self.config.n_days + 1)).tolist()
        out: list[DerivedRates] = []
        for lo, hi in zip(bounds, bounds[1:]):
            if lo == hi:
                break
            rows = order[lo:hi]
            seconds = float(t.ends[rows[-1]] - t.starts[rows[0]])
            out.append(row_rates(t.sums[rows].sum(axis=0), seconds, self.config.n_nodes))
        return out

    def daily_gflops(self) -> np.ndarray:
        return np.array([r.gflops_system() for r in self.daily_rates()])

    def interval_gflops(self) -> tuple[np.ndarray, np.ndarray]:
        """(interval end times, system Gflops) at the 15-minute cadence —
        the series behind the paper's 5.7 Gflops 15-minute maximum."""
        times, gflops = self._derived("interval_gflops", self._interval_gflops)
        return times.copy(), gflops.copy()

    def _interval_gflops(self, ivs: list) -> tuple[np.ndarray, np.ndarray]:
        t = self._columns()
        rates = column_rates(t.sums, t.ends - t.starts, self.config.n_nodes)
        return t.ends, rates.gflops_system()

    def interval_dma_bytes_per_node(self) -> tuple[np.ndarray, np.ndarray]:
        """(interval ends, per-node DMA bytes/s) — §5's message-passing
        traffic series (avg ≈1.3 MB/s, best 15-minute ≈5.4 MB/s)."""
        t = self._columns()
        dma = t.sums[:, FLAT_COLUMN["user.dma_read"]] + t.sums[:, FLAT_COLUMN["user.dma_write"]]
        rates = dma * DMA_TRANSFER_BYTES / ((t.ends - t.starts) * np.maximum(t.n_nodes, 1))
        return t.ends.copy(), rates

    def daily_utilization(self) -> np.ndarray:
        """Fraction of node-time servicing PBS jobs, per day (§5's 64%)."""
        if not self.utilization_probes:
            return np.zeros(0)
        times = np.array([t for t, _ in self.utilization_probes])
        busy = np.array([b for _, b in self.utilization_probes], dtype=float)
        days = (times / SECONDS_PER_DAY).astype(int)
        out = np.zeros(self.config.n_days)
        for d in range(self.config.n_days):
            mask = days == d
            if mask.any():
                out[d] = busy[mask].mean() / self.config.n_nodes
        return out


class WorkloadStudy:
    """Wires machine, PBS, collector and trace together and runs them.

    ``telemetry=False`` builds no event bus and no telemetry service.
    The dataset keeps the collector's intervals; ``keep_samples=True``
    also keeps every pass in ``collector.samples``, which only a shard
    worker asks for (the merge rebases and replays them).
    """

    def __init__(
        self,
        config: StudyConfig | None = None,
        *,
        tracer: Tracer | None = None,
        fault_streams: RngStreams | None = None,
        telemetry: bool = True,
        keep_samples: bool = False,
    ) -> None:
        self.config = config or StudyConfig()
        #: RNG tree the fault schedule is drawn from.  ``None`` defaults
        #: to the root tree for the config's seed; the sharded runner
        #: passes each shard's spawned tree so shard fault schedules are
        #: independent yet reproducible.
        self._fault_streams = fault_streams
        self.sim = Simulator()
        self.machine = SP2Machine(
            self.config.n_nodes,
            self.config.machine_config,
            switch_config=self.config.switch_config,
        )
        # One bus per campaign: the collector and PBS publish, the
        # telemetry service consumes — the streaming counterpart of §3's
        # "stores this data for later analysis".  A campaign whose caller
        # reads no telemetry (a repeat seed, a shard worker) builds
        # neither: every publisher skips its publish when its bus is None.
        self.bus: EventBus | None = EventBus() if telemetry else None
        # One tracer per campaign (optional): bound to the simulation
        # clock and threaded through every instrumented layer, spans
        # republished on the bus.
        self.tracer = tracer
        if tracer is not None:
            tracer.bind_clock(lambda: self.sim.now)
            if tracer.bus is None:
                tracer.bus = self.bus
        self.sim.tracer = tracer
        self.sim.bus = self.bus
        self.telemetry = TelemetryService(bus=self.bus, tracer=tracer) if telemetry else None
        # Queue policy from the config; the defaults build exactly the
        # queue PBSServer would build itself, so healthy campaigns stay
        # byte-identical to pre-sweep releases.
        from repro.pbs.queue import JobQueue

        queue = JobQueue(
            wide_threshold=self.config.scheduler_wide_threshold,
            backfill=self.config.scheduler_policy == "backfill",
        )
        self.pbs = PBSServer(
            self.sim, self.machine, queue=queue, bus=self.bus, tracer=tracer
        )
        self.machine.switch.tracer = tracer
        self.collector = SystemCollector(
            self.machine,
            interval=self.config.sample_interval,
            bus=self.bus,
            tracer=tracer,
            keep_samples=keep_samples,
        )
        self.daemons = self.collector.daemons
        self._utilization_probes: list[tuple[float, int]] = []

    def _probe_utilization(self, sim: Simulator) -> None:
        self._utilization_probes.append((sim.now, self.pbs.busy_node_count()))

    def run(self, trace: CampaignTrace | None = None) -> StudyDataset:
        """Replay the trace; returns the measured dataset."""
        cfg = self.config
        trace = trace or generate_trace(
            cfg.seed,
            n_days=cfg.n_days,
            n_nodes=cfg.n_nodes,
            n_users=cfg.n_users,
            demand_mean=cfg.demand_mean,
            machine_config=cfg.machine_config,
        )
        if trace.n_nodes != cfg.n_nodes:
            raise ValueError(
                f"trace was generated for {trace.n_nodes} nodes, study has {cfg.n_nodes}"
            )

        # Arm fault injection (no-op on healthy campaigns: the injector,
        # its streams, and its schedule are never built, so the healthy
        # path draws exactly the same random numbers as before).
        injector = None
        profile = cfg.fault_profile
        if profile is not None and not profile.is_null:
            from repro.faults.injector import FaultInjector

            streams = self._fault_streams or RngStreams(cfg.seed)
            injector = FaultInjector(profile, streams)
            injector.arm(self, trace.horizon_seconds)

        # Arm the samplers (baseline sample at t=0 included).
        self.collector.attach(self.sim)
        self._probe_utilization(self.sim)
        self.sim.every(
            cfg.utilization_probe_interval,
            self._probe_utilization,
            name="utilization-probe",
        )

        # Schedule every submission.
        for sub in trace.submissions:
            self.sim.schedule_at(
                sub.time,
                lambda sim, s=sub: self.pbs.submit(s.user, s.app_name, s.nodes, s.profile),
                name=f"submit-{sub.app_name}",
            )

        if self.tracer is not None and self.tracer.enabled:
            from repro.tracing.span import CAT_CAMPAIGN

            with self.tracer.span(
                "campaign",
                CAT_CAMPAIGN,
                seed=cfg.seed,
                days=cfg.n_days,
                nodes=cfg.n_nodes,
            ):
                self.sim.run(until=trace.horizon_seconds)
        else:
            self.sim.run(until=trace.horizon_seconds)

        # Final sync so trailing partial intervals are consistent: one
        # sweep of every node's store slot.
        self.machine.store.sync_slots(range(self.machine.n_nodes), trace.horizon_seconds)
        # The campaign is over: events past the horizon never fire, and
        # dropping them lets the dataset's memory go with the dataset.
        self.sim.clear()

        return StudyDataset(
            config=cfg,
            trace=trace,
            collector=self.collector,
            accounting=self.pbs.accounting,
            utilization_probes=self._utilization_probes,
            telemetry=self.telemetry,
            events_processed=self.sim.events_processed,
            tracer=self.tracer,
            faults=(
                injector.finalize(trace.horizon_seconds) if injector is not None else None
            ),
        )


def run_study(
    config: StudyConfig,
    *,
    shard_days: int | None = None,
    workers: int = 1,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    shard_attempts: int = 3,
    tracing: bool = False,
    trace: CampaignTrace | None = None,
    fault_namespace: tuple[int, ...] = (),
    bus_hook: Callable[[EventBus], None] | None = None,
    telemetry: bool = True,
) -> StudyDataset:
    """Run one campaign, serially or as day-range shards.

    The shard plan alone chooses the runner: ``shard_days=None`` runs
    :class:`WorkloadStudy`; a width runs
    :func:`repro.parallel.run_parallel_study` on that plan.  ``workers``
    only sets how many processes execute the shards, so it never changes
    the output (a serial run ignores it).  Checkpoint files
    (``checkpoint_dir``/``resume``, retried up to ``shard_attempts``)
    belong to a shard plan, so they need ``shard_days``.

    ``tracing`` records spans into ``dataset.tracer``.  ``trace``
    replays a pre-built submission stream instead of generating one
    (fleet members).  ``fault_namespace`` prefixes the fault schedule's
    RNG spawn key (:func:`repro.util.rng.member_key`; ``()`` is the
    single-machine tree).  ``bus_hook`` receives the campaign's event
    bus before it runs, the seam live consumers tap; a sharded run
    rebuilds its telemetry at merge time, has no live bus, and refuses
    the hook.  ``telemetry=False`` builds no event bus and no telemetry
    service (nor the sharded merge's replay), so ``dataset.telemetry``
    is None: for callers that read only the measured data, such as a
    repeat seed.
    """
    if bus_hook is not None and not telemetry:
        raise ValueError("bus_hook needs telemetry: a run with telemetry=False has no bus to tap")
    if shard_days is None:
        if checkpoint_dir is not None or resume:
            raise ValueError("checkpointing needs a shard plan; pass shard_days")
        fault_streams = (
            RngStreams(config.seed, spawn_key=fault_namespace) if fault_namespace else None
        )
        study = WorkloadStudy(
            config,
            tracer=Tracer() if tracing else None,
            fault_streams=fault_streams,
            telemetry=telemetry,
        )
        if bus_hook is not None:
            bus_hook(study.bus)
        return study.run(trace)
    if bus_hook is not None:
        raise ValueError(
            "bus_hook needs the serial runner: a sharded campaign replays its "
            "telemetry at merge time, so there is no live bus to tap"
        )
    from repro.parallel.runner import run_parallel_study

    return run_parallel_study(
        config,
        workers=workers,
        shard_days=shard_days,
        tracing=tracing,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        max_attempts=shard_attempts,
        trace=trace,
        fault_namespace=fault_namespace,
        telemetry=telemetry,
    )
