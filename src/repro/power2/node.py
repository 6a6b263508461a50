"""An RS6000/590 node: CPU + monitor + 128 MB memory + paging + DMA.

The node is where the paper's two headline pathologies live:

* **Paging (§6)** — jobs whose resident demand oversubscribes the 128 MB
  node memory page against the local disk.  Page-fault handling runs in
  *system* mode, so the FXU/ICU instruction counters inflate in the
  system bank while user-mode progress collapses — the signature the
  paper used to diagnose the >64-node performance cliff (Figure 5).
* **Invisible waits (§5)** — message-passing and disk waits consume wall
  time without ticking the user counters, which is why the counter data
  alone could not explain the 3%-of-peak efficiency.

Work arrives as *phases*: a compute block (an
:class:`~repro.power2.pipeline.ExecutionResult` from the cycle model), a
communication wait, an I/O transfer, or idle time.  Every phase also
accrues a baseline of system-mode OS activity (daemons, interrupts),
which keeps the system/user FXU ratio finite and realistic on healthy
nodes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.power2.batch import CounterStore, StoreMonitor
from repro.power2.config import MachineConfig, POWER2_590
from repro.power2.counters import Mode, rates_vector
from repro.power2.pipeline import ExecutionResult


#: Bytes moved per DMA transfer: the paper's §5 arithmetic (0.042e6
#: transfers/s ≈ 1.3 MB/s) implies ≈31 bytes, i.e. 4-word transfers.
DMA_TRANSFER_BYTES = 32.0

#: Baseline system-mode activity on every node, busy or idle: AIX
#: daemons, clock ticks, network interrupts.  Instructions per second.
OS_BASE_FXU_RATE = 2.5e5
OS_BASE_ICU_RATE = 0.6e5
OS_BASE_CYCLE_FRACTION = 0.01

#: System-mode activity while the VMM is stealing time on a paging node:
#: page-replacement scanning (lrud), fault service and I/O setup run
#: load/store-heavy kernel loops at a large fraction of machine speed.
#: Rates are per second of *stolen* time (§6's thrashing signature —
#: system-mode FXU/ICU counts exceeding user mode).
PAGING_SYSTEM_FXU_RATE = 24e6
PAGING_SYSTEM_ICU_RATE = 5e6
#: During stolen time the CPU is busy roughly half the time (the rest is
#: paging-disk wait), so system cycles accrue at this fraction of clock.
PAGING_CPU_BUSY_FRACTION = 0.5


class PhaseKind(enum.Enum):
    COMPUTE = "compute"
    COMM_WAIT = "comm_wait"
    IO_WAIT = "io_wait"
    IDLE = "idle"


@dataclass(frozen=True)
class WorkPhase:
    """One slice of a job's life on a node."""

    kind: PhaseKind
    #: Compute phases carry the cycle model's result.
    execution: ExecutionResult | None = None
    #: Wait/idle phases carry wall seconds directly.
    seconds: float = 0.0
    #: I/O phases move bytes through the DMA engine.
    dma_read_bytes: float = 0.0
    dma_write_bytes: float = 0.0


@dataclass
class PhaseResult:
    """Wall-clock accounting for one executed phase."""

    kind: PhaseKind
    wall_seconds: float
    user_flops: float = 0.0
    page_faults: float = 0.0
    paging_wall_seconds: float = 0.0


@dataclass(frozen=True)
class PagingState:
    """Derived paging behaviour for the node's current memory demand."""

    oversubscription: float
    fault_rate_per_s: float
    #: Fraction of wall time stolen by fault service + disk waits.
    stolen_fraction: float

    @property
    def thrashing(self) -> bool:
        return self.stolen_fraction > 0.5


def compute_paging_state(
    demand_bytes: float,
    capacity_bytes: float,
    config: MachineConfig,
    *,
    fault_limit: float | None = None,
    onset: float | None = None,
) -> PagingState:
    """Fault rate and stolen wall-time fraction for a memory demand.

    Shared by :class:`Node` (phase-level path) and the job-profile
    builder (campaign fast path) so both agree on the §6 paging physics:
    the fault rate ramps with oversubscription and saturates at the
    paging disk's service limit; each fault costs system-mode service
    cycles plus a disk wait.
    """
    if capacity_bytes <= 0:
        raise ValueError("capacity must be positive")
    if fault_limit is None:
        fault_limit = config.paging_fault_limit
    if onset is None:
        onset = config.paging_onset
    over = max(0.0, demand_bytes / capacity_bytes - 1.0)
    if over <= 0.0:
        return PagingState(0.0, 0.0, 0.0)
    severity = min(1.0, over / onset)
    fault_rate = fault_limit * severity
    per_fault_seconds = (
        config.page_fault_service_cycles * config.cycle_seconds
        + config.page_fault_disk_seconds
    )
    stolen = min(0.98, fault_rate * per_fault_seconds)
    return PagingState(over, fault_rate, stolen)


class Node:
    """One SP2 node.

    Parameters
    ----------
    node_id:
        Position in the cluster (0..143 for the NAS machine).
    config:
        Machine constants; defaults to the POWER2/590.
    paging_disk_fault_limit:
        Maximum hard-fault service rate of the paging disk (faults/s).
    paging_onset:
        Oversubscription at which the paging-disk fault rate saturates;
        e.g. ``0.25`` means 25% over memory pins the paging disk.
    """

    def __init__(
        self,
        node_id: int,
        config: MachineConfig | None = None,
        *,
        paging_disk_fault_limit: float | None = None,
        paging_onset: float | None = None,
    ) -> None:
        self.node_id = int(node_id)
        self.config = config or POWER2_590
        self.paging_disk_fault_limit = (
            self.config.paging_fault_limit
            if paging_disk_fault_limit is None
            else paging_disk_fault_limit
        )
        self.paging_onset = (
            self.config.paging_onset if paging_onset is None else paging_onset
        )
        self._memory_used = 0.0
        #: Optional span tracer (phase-execution path): each executed
        #: phase is recorded on the node's own wall-time axis.
        self.tracer = None
        # Counters, rates and the wall/busy clocks live in a store slot:
        # the node's own one-slot store until a machine attaches it.
        self._bind(CounterStore(1), 0)

    # ------------------------------------------------------------------
    # Counter store slot
    # ------------------------------------------------------------------
    def attach_store(self, store: CounterStore, slot: int) -> None:
        """Move this node onto ``slot`` of a shared
        :class:`~repro.power2.batch.CounterStore`.

        Must happen on a pristine node (machine construction time): the
        slot starts from zero, so migrating accrued state is neither
        needed nor supported.  A machine attaches all its nodes to one
        store so a counter read syncs all of them in one sweep.
        """
        if self.wall_seconds or self.busy_seconds or self._store.last_sync(self._slot):
            raise RuntimeError("cannot attach a store to a node with history")
        self._bind(store, slot)

    def _bind(self, store: CounterStore, slot: int) -> None:
        self._store = store
        self._slot = slot
        store.configure_slot(slot, self._background_rates())
        self.monitor = StoreMonitor(store, slot)

    @property
    def wall_seconds(self) -> float:
        """Total simulated wall seconds this node has accounted."""
        return self._store.wall(self._slot)

    @wall_seconds.setter
    def wall_seconds(self, value: float) -> None:
        self._store.set_wall(self._slot, value)

    @property
    def busy_seconds(self) -> float:
        return self._store.busy(self._slot)

    @busy_seconds.setter
    def busy_seconds(self, value: float) -> None:
        self._store.set_busy(self._slot, value)

    # ------------------------------------------------------------------
    # Memory management
    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        return self.config.memory_bytes

    @property
    def memory_used(self) -> float:
        return self._memory_used

    def assign_memory(self, nbytes: float) -> None:
        """Pin a job's resident demand.  Demand *may* exceed physical
        memory — that is exactly the §6 failure mode — it just pages."""
        if nbytes < 0:
            raise ValueError("memory demand cannot be negative")
        self._memory_used += nbytes

    def release_memory(self, nbytes: float) -> None:
        if nbytes > self._memory_used + 1e-6:
            raise ValueError(
                f"releasing {nbytes} B but only {self._memory_used} B assigned"
            )
        self._memory_used = max(0.0, self._memory_used - nbytes)

    def paging_state(self) -> PagingState:
        """Fault rate and stolen time for the current memory demand."""
        return compute_paging_state(
            self._memory_used,
            self.memory_bytes,
            self.config,
            fault_limit=self.paging_disk_fault_limit,
            onset=self.paging_onset,
        )

    # ------------------------------------------------------------------
    # Phase execution
    # ------------------------------------------------------------------
    def run_phase(self, phase: WorkPhase) -> PhaseResult:
        start = self.wall_seconds
        result = self._dispatch_phase(phase)
        if self.tracer is not None and self.tracer.enabled:
            from repro.tracing.span import CAT_NODE_PHASE

            self.tracer.record(
                phase.kind.value,
                CAT_NODE_PHASE,
                start=start,
                duration=result.wall_seconds,
                node=self.node_id,
                flops=result.user_flops,
                faults=result.page_faults,
            )
        return result

    def _dispatch_phase(self, phase: WorkPhase) -> PhaseResult:
        if phase.kind is PhaseKind.COMPUTE:
            if phase.execution is None:
                raise ValueError("compute phase requires an ExecutionResult")
            return self._run_compute(phase.execution)
        if phase.seconds < 0:
            raise ValueError("phase seconds cannot be negative")
        if phase.kind in (PhaseKind.COMM_WAIT, PhaseKind.IO_WAIT):
            return self._run_wait(phase)
        return self._run_idle(phase.seconds)

    def _run_compute(self, execution: ExecutionResult) -> PhaseResult:
        """User-mode work, stretched by paging if memory is oversubscribed."""
        paging = self.paging_state()
        # The compute block needs `execution.seconds` of CPU; paging
        # steals a fraction of wall time, so wall = cpu / (1 - stolen).
        wall = execution.seconds / (1.0 - paging.stolen_fraction)
        faults = paging.fault_rate_per_s * wall
        stolen_seconds = wall * paging.stolen_fraction
        self.monitor.accrue(execution, Mode.USER)
        cfg = self.config
        if stolen_seconds > 0:
            self.monitor.accrue_raw(
                {
                    "fxu0": stolen_seconds * PAGING_SYSTEM_FXU_RATE * 0.5,
                    "fxu1": stolen_seconds * PAGING_SYSTEM_FXU_RATE * 0.5,
                    "icu0": stolen_seconds * PAGING_SYSTEM_ICU_RATE,
                    "cycles": stolen_seconds * cfg.clock_hz * PAGING_CPU_BUSY_FRACTION,
                },
                Mode.SYSTEM,
            )
        # Paging moves pages over the SIO bus: each 4 kB fault is
        # page-in DMA writes to memory (and eventually page-out reads).
        page_transfers = faults * cfg.tlb.page_bytes / DMA_TRANSFER_BYTES
        self.monitor.accrue_dma(reads=page_transfers * 0.4, writes=page_transfers * 0.6)
        self._accrue_background(wall)
        self.wall_seconds += wall
        self.busy_seconds += wall
        return PhaseResult(
            kind=PhaseKind.COMPUTE,
            wall_seconds=wall,
            user_flops=execution.mix.flops,
            page_faults=faults,
            paging_wall_seconds=wall - execution.seconds,
        )

    def _run_wait(self, phase: WorkPhase) -> PhaseResult:
        """Communication or I/O wait: DMA ticks, user counters do not."""
        reads = phase.dma_read_bytes / DMA_TRANSFER_BYTES
        writes = phase.dma_write_bytes / DMA_TRANSFER_BYTES
        self.monitor.accrue_dma(reads=reads, writes=writes)
        self._accrue_background(phase.seconds)
        self.wall_seconds += phase.seconds
        self.busy_seconds += phase.seconds
        return PhaseResult(kind=phase.kind, wall_seconds=phase.seconds)

    def _run_idle(self, seconds: float) -> PhaseResult:
        self._accrue_background(seconds)
        self.wall_seconds += seconds
        return PhaseResult(kind=PhaseKind.IDLE, wall_seconds=seconds)

    def _accrue_background(self, seconds: float) -> None:
        """Baseline AIX system-mode activity for any wall time."""
        if seconds <= 0:
            return
        self.monitor.accrue_raw(
            {
                "fxu0": OS_BASE_FXU_RATE * 0.5 * seconds,
                "fxu1": OS_BASE_FXU_RATE * 0.5 * seconds,
                "icu0": OS_BASE_ICU_RATE * seconds,
                "cycles": OS_BASE_CYCLE_FRACTION * self.config.clock_hz * seconds,
            },
            Mode.SYSTEM,
        )

    # ------------------------------------------------------------------
    # Campaign fast path: steady counter rates + lazy accrual
    # ------------------------------------------------------------------
    # A running job presents as constant per-second counter rates on its
    # nodes (see repro.workload.profile).  `install_rates` installs them
    # and `sync` integrates counters up to a timestamp; every counter
    # read syncs first so snapshots are exact.

    def install_rates(
        self,
        now: float,
        user_rates: np.ndarray | None = None,
        system_rates: np.ndarray | None = None,
        *,
        busy: bool = False,
    ) -> None:
        """Install steady per-second counter rate vectors from ``now`` on.

        ``None`` rates mean "idle": only the background OS vector ticks.
        """
        self._store.sync_one(self._slot, now)
        self._store.install(self._slot, user_rates, system_rates, busy=busy)

    def sync(self, now: float) -> None:
        """Integrate installed rates up to simulated time ``now``."""
        self._store.sync_one(self._slot, now)

    def halt(self, now: float) -> None:
        """Power the node down at ``now`` (crash).

        Counters are synced to the instant of the crash and then
        *freeze* — they persist across the outage and keep their values
        at repair, so the collector's per-node series stays monotone
        (the delta algebra asserts counters never run backwards).
        """
        self._store.sync_one(self._slot, now)
        self._store.halt(self._slot)

    def resume(self, now: float) -> None:
        """Return the node to service at ``now`` (repair).

        The outage integrates as zero-rate time, then the idle
        background OS vector is reinstalled.
        """
        self.install_rates(now)

    def _background_rates(self) -> np.ndarray:
        """Idle-node background OS activity as a bank-ordered vector."""
        return rates_vector(
            {
                "fxu0": OS_BASE_FXU_RATE * 0.5,
                "fxu1": OS_BASE_FXU_RATE * 0.5,
                "icu0": OS_BASE_ICU_RATE,
                "cycles": OS_BASE_CYCLE_FRACTION * self.config.clock_hz,
            }
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def utilization(self) -> float:
        """Fraction of accounted wall time spent in job phases."""
        return self.busy_seconds / self.wall_seconds if self.wall_seconds else 0.0

    def snapshot(self) -> dict[str, int]:
        """RS2HPM-style flat counter snapshot for this node."""
        return self.monitor.flat_snapshot()
