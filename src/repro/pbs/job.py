"""Job specifications, states, and accounting records."""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Protocol, runtime_checkable

import numpy as np

from repro.power2.counters import FLAT_COLUMN, FLAT_NAMES


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


@dataclass(eq=False)
class JobRecord:
    """Epilogue-time accounting for one finished job.

    ``deltas`` is the epilogue's counter block (§3), the record's only
    per-node store: the prologue→epilogue differences as an
    ``(len(node_ids), 44)`` int64 matrix, row ``i`` node ``node_ids[i]``,
    columns in :data:`~repro.power2.counters.FLAT_NAMES` order.  Every
    per-job figure reads one reduction of it (:meth:`summed_deltas`).
    """

    job_id: int
    user: int
    app_name: str
    nodes_requested: int
    node_ids: tuple[int, ...]
    submit_time: float
    start_time: float
    end_time: float
    deltas: np.ndarray

    #: ``(deltas, read-only totals)`` once reduced.  A plain class
    #: attribute, not a field: never compared, printed or pickled.
    _reduced = None

    @classmethod
    def from_counter_deltas(
        cls, per_node: Mapping[int, Mapping[str, int]], /, **fields
    ) -> "JobRecord":
        """A record from per-node delta dicts (parsed reports, hand-built
        rows) naming exactly the nodes in ``fields["node_ids"]``; a
        counter absent from a node's dict reads 0."""
        node_ids = fields["node_ids"]
        for nid in per_node:
            if nid not in node_ids:
                raise ValueError(f"counters for node {nid}, which is not in node_ids")
        deltas = np.zeros((len(node_ids), len(FLAT_NAMES)), dtype=np.int64)
        for row, nid in enumerate(node_ids):
            if nid in node_ids[:row]:
                raise ValueError(f"node {nid} appears twice in node_ids")
            if nid not in per_node:
                raise ValueError(f"no counters for node {nid}")
            for name, value in per_node[nid].items():
                if name not in FLAT_COLUMN:
                    raise ValueError(f"node {nid}: unknown counter {name!r}")
                try:
                    deltas[row, FLAT_COLUMN[name]] = value
                except OverflowError:
                    raise ValueError(f"node {nid}: {name} = {value} overflows int64") from None
        return cls(deltas=deltas, **fields)

    def __eq__(self, other: object) -> bool:
        """Every field; ``deltas`` by shape, dtype and values."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b = self.deltas, other.deltas
        scalars = dataclasses.fields(self)[:-1]
        return all(getattr(self, f.name) == getattr(other, f.name) for f in scalars) and (
            a.dtype == b.dtype and np.array_equal(a, b)
        )

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_reduced"}

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
        """Counter deltas summed over the job's nodes (read-only): the
        matrix's column sums, reduced on first use (also after
        unpickling) and again only if ``deltas`` is replaced."""
        reduced = self._reduced
        if reduced is None or reduced[0] is not self.deltas:
            totals = dict(zip(FLAT_NAMES, self.deltas.sum(axis=0).tolist()))
            reduced = self._reduced = (self.deltas, MappingProxyType(totals))
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
