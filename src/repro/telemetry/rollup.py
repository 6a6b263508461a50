"""Per-job rollups, finalized at epilogue time.

§3's prologue/epilogue scripts produced per-job counter files "for later
processing"; the streaming layer turns the epilogue into the *moment of
finalization*: when PBS publishes a :class:`~repro.telemetry.bus.JobEnded`
event the rollup table freezes that job's derived figures, so the
operator view can rank and filter finished jobs without re-deriving
anything from the raw dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.pbs.job import JobRecord
from repro.telemetry.bus import JobEnded, JobKilled, JobStarted


@dataclass(frozen=True)
class ActiveJob:
    """A job between prologue and epilogue."""

    job_id: int
    user: int
    app_name: str
    nodes_requested: int
    node_ids: tuple[int, ...]
    start_time: float


@dataclass(frozen=True)
class JobRollup:
    """One finished job's frozen operator-facing figures.

    The derived numbers are read once at finalization from the record's
    per-job totals (summed once, at the epilogue) and frozen here;
    ``record`` keeps the full accounting row for drill-down.
    """

    record: JobRecord
    finalized_at: float
    total_mflops: float
    mflops_per_node: float
    system_user_fxu_ratio: float
    node_seconds: float

    @property
    def job_id(self) -> int:
        return self.record.job_id

    @property
    def user(self) -> int:
        return self.record.user

    @property
    def app_name(self) -> str:
        return self.record.app_name

    @classmethod
    def from_record(cls, record: JobRecord, *, finalized_at: float) -> "JobRollup":
        return cls(
            record=record,
            finalized_at=finalized_at,
            total_mflops=record.total_mflops,
            mflops_per_node=record.mflops_per_node,
            system_user_fxu_ratio=record.system_user_fxu_ratio,
            node_seconds=record.node_seconds,
        )


@dataclass
class RollupTable:
    """Jobs keyed by id: active between prologue and epilogue, then
    appended (in finalization order) to the finished list."""

    active: dict[int, ActiveJob] = field(default_factory=dict)
    finished: list[JobRollup] = field(default_factory=list)
    _by_id: dict[int, JobRollup] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Bus handlers
    # ------------------------------------------------------------------
    def on_start(self, ev: JobStarted) -> None:
        self.active[ev.job_id] = ActiveJob(
            job_id=ev.job_id,
            user=ev.user,
            app_name=ev.app_name,
            nodes_requested=ev.nodes_requested,
            node_ids=ev.node_ids,
            start_time=ev.time,
        )

    def on_killed(self, ev: JobKilled) -> None:
        """A node failure killed the job: it never reaches epilogue on
        this attempt, so it just leaves the active table (a requeued
        retry re-enters via a fresh prologue)."""
        self.active.pop(ev.job_id, None)

    def on_end(self, ev: JobEnded) -> JobRollup:
        self.active.pop(ev.record.job_id, None)
        rollup = JobRollup.from_record(ev.record, finalized_at=ev.time)
        self.finished.append(rollup)
        self._by_id[rollup.job_id] = rollup
        return rollup

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, job_id: int) -> JobRollup | None:
        return self._by_id.get(job_id)

    def finished_between(self, t0: float, t1: float) -> list[JobRollup]:
        """Rollups whose jobs ended in ``[t0, t1)``, finalization order."""
        return [r for r in self.finished if t0 <= r.record.end_time < t1]

    def top_by_mflops(self, n: int, *, t0: float = 0.0, t1: float = float("inf")) -> list[JobRollup]:
        pool = self.finished_between(t0, t1)
        pool.sort(key=lambda r: r.total_mflops, reverse=True)
        return pool[:n]

    def for_user(self, user: int) -> list[JobRollup]:
        return [r for r in self.finished if r.user == user]

    def paging_suspects(self, *, ratio_threshold: float = 0.5) -> list[JobRollup]:
        """Finished jobs bearing the §6 signature."""
        import math

        return [
            r
            for r in self.finished
            if math.isfinite(r.system_user_fxu_ratio)
            and r.system_user_fxu_ratio > ratio_threshold
        ]

    def __len__(self) -> int:
        return len(self.finished)
