"""Job execution profiles: from kernel + parallel structure to rates.

PBS (see :mod:`repro.pbs.scheduler`) runs a job by installing constant
per-second counter rate vectors on its dedicated nodes.  This module
builds those vectors from first principles:

1. the kernel's instruction mix for one *iteration* of per-node work is
   costed by the cycle model (compute seconds + counter events);
2. the iteration's communication phase is costed by the switch model
   (halo-exchange wall time + DMA transfer counts; §5: "Most of the DMA
   traffic represents message-passing I/O");
3. periodic checkpoint I/O to the NFS home filesystems adds amortized
   wall time and DMA traffic;
4. user counter events ÷ iteration wall seconds = user rate vector;
   message-protocol and NFS-client work runs in *system* mode and joins
   the background OS vector.

The resulting :class:`JobProfile` satisfies the
:class:`repro.pbs.job.ExecutionProfile` protocol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.switch import HighPerformanceSwitch
from repro.power2.config import MachineConfig, POWER2_590
from repro.power2.counters import (
    BANK_SIZE,
    counter_index,
    execution_event_counts,
    rates_vector,
)
from repro.power2.node import (
    DMA_TRANSFER_BYTES,
    OS_BASE_CYCLE_FRACTION,
    OS_BASE_FXU_RATE,
    OS_BASE_ICU_RATE,
)
from repro.power2.pipeline import CycleModel
from repro.workload.kernels import KernelSpec, evaluate_kernel

#: System-mode protocol cost per message and per byte (MPI/PVM stacks of
#: the era ran their transport in kernel mode through the adapter).
PROTOCOL_INSTS_PER_MESSAGE = 4.0e3
PROTOCOL_INSTS_PER_KBYTE = 0.9e3


@dataclass(frozen=True)
class CommPattern:
    """Per-iteration communication of one node of the job."""

    neighbors: int = 0
    bytes_per_neighbor: float = 0.0
    asynchronous: bool = False
    #: Barriers/reductions per iteration (synchronous solvers).
    global_syncs: int = 0

    @property
    def bytes_per_iteration(self) -> float:
        return self.neighbors * self.bytes_per_neighbor


@dataclass(frozen=True)
class IOPattern:
    """Periodic checkpoint/plot-file output to the home filesystems."""

    bytes_per_checkpoint: float = 0.0
    iterations_per_checkpoint: int = 50

    @property
    def bytes_per_iteration(self) -> float:
        if self.iterations_per_checkpoint <= 0:
            return 0.0
        return self.bytes_per_checkpoint / self.iterations_per_checkpoint


@dataclass(frozen=True)
class JobProfile:
    """Steady-state per-node behaviour of one job (PBS's contract)."""

    app_name: str
    kernel_name: str
    nodes: int
    walltime_seconds: float
    memory_bytes_per_node: float
    user_rates: np.ndarray
    system_rates: np.ndarray
    mflops_per_node: float
    #: Diagnostics for tests/ablations.
    compute_fraction: float
    comm_fraction: float
    io_fraction: float

    def __post_init__(self) -> None:
        if self.walltime_seconds <= 0:
            raise ValueError("job walltime must be positive")
        if self.user_rates.shape != (BANK_SIZE,) or self.system_rates.shape != (BANK_SIZE,):
            raise ValueError("rate vectors must be bank-ordered")


class _MixKernel:
    """Adapter presenting a counted instruction mix as a kernel.

    Lets :func:`build_job_profile` run on *instrumented real code* (see
    :mod:`repro.workload.solver`) whose per-iteration mix was measured
    by operation counting rather than drawn from the statistical
    catalog.
    """

    def __init__(self, name, mix, behaviour, deps):
        self.name = name
        self._mix = mix
        self._behaviour = behaviour
        self.deps = deps

    def mix_for_flops(self, flops: float):
        base = self._mix.flops
        if base <= 0:
            raise ValueError("instrumented mix produces no flops")
        return self._mix.scaled(flops / base)

    def memory_behaviour(self, config=None):
        return self._behaviour


def profile_from_mix(
    *,
    app_name: str,
    mix,
    memory,
    deps,
    nodes: int,
    iterations_mix_count: float = 1.0,
    **kwargs,
) -> "JobProfile":
    """Build a job profile from a counted per-iteration instruction mix.

    ``mix`` is the work of one iteration on one node (e.g. a solver
    sweep from :meth:`repro.workload.solver.JacobiSolver.sweep_mix`,
    times ``iterations_mix_count`` if several sweeps form an
    iteration).  Remaining keyword arguments are passed through to
    :func:`build_job_profile`.
    """
    kernel = _MixKernel(app_name, mix, memory, deps)
    return build_job_profile(
        app_name=app_name,
        kernel=kernel,  # type: ignore[arg-type]
        nodes=nodes,
        flops_per_node_per_iteration=mix.flops * iterations_mix_count,
        **kwargs,
    )


def build_job_profile(
    *,
    app_name: str,
    kernel: KernelSpec,
    nodes: int,
    flops_per_node_per_iteration: float,
    walltime_seconds: float,
    memory_bytes_per_node: float,
    comm: CommPattern | None = None,
    io: IOPattern | None = None,
    config: MachineConfig | None = None,
    serial_fraction: float = 0.0,
) -> JobProfile:
    """Build the steady-rate profile for one job.

    ``walltime_seconds`` is how long the job holds its nodes (from the
    submission model); the iteration structure determines the *rates*
    during that time.  ``serial_fraction`` models load imbalance and
    serial sections: that fraction of each iteration's wall time does no
    user-counter work at all.
    """
    if nodes <= 0:
        raise ValueError("job needs at least one node")
    if flops_per_node_per_iteration < 0:
        raise ValueError("flops per iteration cannot be negative")
    if not 0.0 <= serial_fraction < 1.0:
        raise ValueError("serial_fraction must be in [0, 1)")
    cfg = config or POWER2_590
    sw = HighPerformanceSwitch()
    comm = comm or CommPattern()
    io = io or IOPattern()
    if nodes == 1:
        comm = CommPattern()  # nobody to talk to

    # 1. Compute phase.  Catalog kernels are frozen/hashable, so their
    # evaluation memoizes; instrumented-mix adapters are not and run the
    # model directly.
    if isinstance(kernel, KernelSpec):
        result = evaluate_kernel(kernel, flops_per_node_per_iteration, cfg)
    else:
        model = CycleModel(cfg)
        mix = kernel.mix_for_flops(flops_per_node_per_iteration)
        result = model.execute(mix, kernel.memory_behaviour(cfg), kernel.deps)
    mix = result.mix
    compute_s = result.seconds

    # 2. Communication phase.
    comm_s = 0.0
    if comm.neighbors > 0 and nodes > 1:
        cost = sw.exchange(
            comm.bytes_per_neighbor, comm.neighbors, asynchronous=comm.asynchronous
        )
        comm_s += cost.seconds
    if comm.global_syncs > 0 and nodes > 1:
        comm_s += comm.global_syncs * sw.global_sync_seconds(nodes)

    # 3. Amortized checkpoint I/O.  The NFS server rate is shared; the
    # switch hop plus a mid-range server rate approximate §2's setup.
    io_bytes = io.bytes_per_iteration
    io_s = 0.0
    if io_bytes > 0:
        io_s = sw.message_seconds(io_bytes) + io_bytes / 12e6

    iter_wall = (compute_s + comm_s + io_s) / (1.0 - serial_fraction)
    if iter_wall <= 0:
        raise ValueError("iteration has no cost; give the job some work")

    # 4. User rates: the compute phase's counter events spread over the
    # iteration wall time (waits tick no user counters, §5).
    user_counts = execution_event_counts(result)
    user_vec = rates_vector(user_counts) / iter_wall

    # DMA transfers: message passing + NFS traffic, counted on the SCU
    # (mode-independent in Table 1's selection; RS2HPM banked them user).
    # Table 1's directions are memory-centric: dma_read = memory → I/O
    # device (message sends, file writes), dma_write = I/O device →
    # memory (message receives, file reads).
    msg_bytes = 2.0 * comm.bytes_per_iteration  # sent + received
    dma_read_transfers = (msg_bytes * 0.5 + io_bytes) / DMA_TRANSFER_BYTES
    dma_write_transfers = (msg_bytes * 0.5) / DMA_TRANSFER_BYTES
    user_vec[counter_index("dma_read")] += dma_read_transfers / iter_wall
    user_vec[counter_index("dma_write")] += dma_write_transfers / iter_wall

    # 5. System rates: background OS + message-protocol + NFS client.
    n_messages = 2.0 * comm.neighbors + 2.0 * comm.global_syncs
    protocol_insts = (
        n_messages * PROTOCOL_INSTS_PER_MESSAGE
        + (msg_bytes + io_bytes) / 1024.0 * PROTOCOL_INSTS_PER_KBYTE
    )
    proto_rate = protocol_insts / iter_wall
    system_vec = rates_vector(
        {
            "fxu0": OS_BASE_FXU_RATE * 0.5 + proto_rate * 0.45,
            "fxu1": OS_BASE_FXU_RATE * 0.5 + proto_rate * 0.45,
            "icu0": OS_BASE_ICU_RATE + proto_rate * 0.10,
            "cycles": OS_BASE_CYCLE_FRACTION * cfg.clock_hz + proto_rate * 1.2,
        }
    )

    total = compute_s + comm_s + io_s
    return JobProfile(
        app_name=app_name,
        kernel_name=kernel.name,
        nodes=nodes,
        walltime_seconds=walltime_seconds,
        memory_bytes_per_node=memory_bytes_per_node,
        user_rates=user_vec,
        system_rates=system_vec,
        mflops_per_node=mix.flops / iter_wall / 1e6,
        compute_fraction=compute_s / total,
        comm_fraction=comm_s / total,
        io_fraction=io_s / total,
    )
