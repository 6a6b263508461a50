"""Job specifications, states, and accounting records."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Protocol, runtime_checkable

import numpy as np

from repro.power2.counters import FLAT_NAMES


@runtime_checkable
class ExecutionProfile(Protocol):
    """What PBS needs to know to run a job (implemented by
    :class:`repro.workload.profile.JobProfile`).

    The profile describes a job's steady-state behaviour on *each* of its
    dedicated nodes: per-second counter rate vectors for the user and
    system banks (bank-ordered, see
    :func:`repro.power2.counters.rates_vector`), the wall time the job
    will hold its nodes, and its per-node memory demand.
    """

    @property
    def walltime_seconds(self) -> float: ...

    @property
    def memory_bytes_per_node(self) -> float: ...

    @property
    def user_rates(self) -> np.ndarray: ...

    @property
    def system_rates(self) -> np.ndarray: ...

    @property
    def mflops_per_node(self) -> float: ...


class JobState(enum.Enum):
    QUEUED = "Q"
    RUNNING = "R"
    EXITED = "E"
    #: Killed by a node failure with no retries left (never requeued).
    KILLED = "K"


@dataclass
class JobSpec:
    """One submission to the PBS server."""

    job_id: int
    user: int
    app_name: str
    nodes_requested: int
    submit_time: float
    profile: ExecutionProfile
    state: JobState = JobState.QUEUED
    #: How many times a node failure has sent this job back to the queue.
    retries: int = 0

    def __post_init__(self) -> None:
        if self.nodes_requested <= 0:
            raise ValueError("jobs must request at least one node")
        if self.submit_time < 0:
            raise ValueError("submit time cannot be negative")

    @property
    def is_wide(self) -> bool:
        """Jobs over 64 nodes needed the queues drained (§6)."""
        return self.nodes_requested > 64


@dataclass
class JobRecord:
    """Epilogue-time accounting for one finished job.

    ``counter_deltas`` holds the per-node prologue→epilogue counter
    differences, flat-labelled (``user.fxu0`` …) exactly as the RS2HPM
    prologue/epilogue scripts wrote them (§3).  They are summed over the
    job's nodes once (:meth:`summed_deltas`), and every per-job figure
    reads that one reduction.
    """

    job_id: int
    user: int
    app_name: str
    nodes_requested: int
    node_ids: tuple[int, ...]
    submit_time: float
    start_time: float
    end_time: float
    counter_deltas: dict[int, dict[str, int]] = field(default_factory=dict)

    #: ``(counter_deltas, read-only totals)`` once reduced.  A plain
    #: class attribute, not a field: never compared, printed or pickled.
    _reduced = None

    @classmethod
    def from_delta_matrix(cls, deltas: np.ndarray, /, **fields) -> "JobRecord":
        """The epilogue's record: row ``i`` of the ``(n, 44)`` int64
        ``deltas`` matrix is node ``fields["node_ids"][i]``'s counter
        deltas, in :data:`~repro.power2.counters.FLAT_NAMES` order.

        Each node's delta dict gets the keys, order and ints
        :func:`~repro.power2.counters.snapshot_delta` gives, and the
        per-job totals come from the matrix's column sums.
        """
        rows = deltas.tolist()
        per_node = {
            nid: dict(zip(FLAT_NAMES, row)) for nid, row in zip(fields["node_ids"], rows)
        }
        record = cls(counter_deltas=per_node, **fields)
        totals = dict(zip(FLAT_NAMES, deltas.sum(axis=0).tolist()))
        record._reduced = (per_node, MappingProxyType(totals))
        return record

    def __getstate__(self) -> dict:
        state = self.__dict__
        if "_reduced" in state:
            state = {k: v for k, v in state.items() if k != "_reduced"}
        return state

    @property
    def walltime_seconds(self) -> float:
        return self.end_time - self.start_time

    @property
    def queue_wait_seconds(self) -> float:
        return self.start_time - self.submit_time

    @property
    def node_seconds(self) -> float:
        return self.walltime_seconds * len(self.node_ids)

    def summed_deltas(self) -> Mapping[str, int]:
        """Counter deltas summed over the job's nodes (read-only).

        Reduced once per record: seeded by the epilogue, or summed on
        first use for records built any other way (parsed reports, shard
        merges, hand-built rows) and again only if ``counter_deltas`` is
        replaced.
        """
        reduced = self._reduced
        if reduced is None or reduced[0] is not self.counter_deltas:
            total: dict[str, int] = {}
            for per_node in self.counter_deltas.values():
                for name, v in per_node.items():
                    total[name] = total.get(name, 0) + v
            reduced = self._reduced = (self.counter_deltas, MappingProxyType(total))
        return reduced[1]

    @staticmethod
    def flops_from_deltas(deltas: Mapping[str, int]) -> float:
        """The paper's flop count from raw counters: adds + multiplies +
        2 × fma, summed over both FPUs (divides unreported, §3)."""
        return (
            deltas.get("user.fpu0_fp_add", 0)
            + deltas.get("user.fpu1_fp_add", 0)
            + deltas.get("user.fpu0_fp_mul", 0)
            + deltas.get("user.fpu1_fp_mul", 0)
            + deltas.get("user.fpu0_fp_div", 0)
            + deltas.get("user.fpu1_fp_div", 0)
            + 2 * deltas.get("user.fpu0_fp_muladd", 0)
            + 2 * deltas.get("user.fpu1_fp_muladd", 0)
        )

    @property
    def total_mflops(self) -> float:
        """Whole-job Mflops rate (Figure 4's y-axis for 16-node jobs)."""
        wall = self.walltime_seconds
        if wall <= 0:
            return 0.0
        return self.flops_from_deltas(self.summed_deltas()) / wall / 1e6

    @property
    def mflops_per_node(self) -> float:
        """Per-node Mflops rate (Figure 3's y-axis)."""
        if not self.node_ids:
            return 0.0
        return self.total_mflops / len(self.node_ids)

    @property
    def flops_per_memory_inst(self) -> float:
        """§7: 'The ratio of flops to memory references was 1.0' for
        the batch jobs (memory ≈ FXU0+FXU1, the §5 approximation)."""
        d = self.summed_deltas()
        fxu = d.get("user.fxu0", 0) + d.get("user.fxu1", 0)
        if fxu == 0:
            return 0.0
        return self.flops_from_deltas(d) / fxu

    @property
    def fma_flop_fraction(self) -> float:
        """Fraction of this job's flops produced by fma instructions."""
        d = self.summed_deltas()
        fma = d.get("user.fpu0_fp_muladd", 0) + d.get("user.fpu1_fp_muladd", 0)
        flops = self.flops_from_deltas(d)
        return 2.0 * fma / flops if flops > 0 else 0.0

    @property
    def system_user_fxu_ratio(self) -> float:
        """§6's paging signature: system-mode vs user-mode FXU counts."""
        d = self.summed_deltas()
        user = d.get("user.fxu0", 0) + d.get("user.fxu1", 0)
        system = d.get("system.fxu0", 0) + d.get("system.fxu1", 0)
        if user == 0:
            return float("inf") if system else 0.0
        return system / user
