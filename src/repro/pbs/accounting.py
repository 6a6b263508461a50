"""The batch-job accounting database behind §6.

Collects :class:`~repro.pbs.job.JobRecord` rows and implements the
paper's batch-job analyses:

* the 600-second wall-clock filter ("this discussion examines only jobs
  exceeding 600 seconds of wall clock time");
* walltime binned by nodes requested (Figure 2);
* per-node Mflops vs nodes requested (Figure 3);
* per-node-count job histories (Figure 4 uses the 16-node series);
* the time-weighted per-node Mflops average (§6: 19 Mflops).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.pbs.job import JobRecord
from repro.util.stats import time_weighted_mean


@dataclass(frozen=True)
class NodeBin:
    """One x-position of Figures 2/3: jobs requesting ``nodes`` nodes."""

    nodes: int
    job_count: int
    total_walltime_seconds: float
    mean_mflops_per_node: float


class AccountingLog:
    """Append-only job record store with the paper's query set."""

    #: §6's filter: ignore short (interactive / benchmarking) jobs.
    MIN_WALLTIME_SECONDS = 600.0

    def __init__(self) -> None:
        self.records: list[JobRecord] = []

    def append(self, record: JobRecord) -> None:
        if record.end_time < record.start_time:
            raise ValueError(f"job {record.job_id} ends before it starts")
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def filtered(self, *, min_walltime: float | None = None) -> list[JobRecord]:
        """Jobs above the wall-clock threshold, in end-time order."""
        cutoff = self.MIN_WALLTIME_SECONDS if min_walltime is None else min_walltime
        out = [r for r in self.records if r.walltime_seconds > cutoff]
        out.sort(key=lambda r: r.end_time)
        return out

    def time_weighted_mflops_per_node(self) -> float:
        """§6: the time-weighted average for the jobs in this database
        (the paper measured 19 Mflops per node)."""
        recs = self.filtered()
        if not recs:
            return 0.0
        rates = [r.mflops_per_node for r in recs]
        weights = [r.walltime_seconds for r in recs]
        return time_weighted_mean(rates, weights)

    def mean_flops_per_memref(self) -> float:
        """Walltime-weighted flops/memref over the filtered jobs —
        §7's 1.0 register-reuse indictment."""
        recs = self.filtered()
        if not recs:
            return 0.0
        return time_weighted_mean(
            [r.flops_per_memory_inst for r in recs],
            [r.walltime_seconds for r in recs],
        )

    def top_decile_fma_fraction(self) -> float:
        """fma flop fraction of the best-performing decile of jobs —
        §7: 'the better-performing individual codes perform at least 80%
        of their operations from fma instructions'."""
        recs = self.filtered()
        if not recs:
            return 0.0
        recs = sorted(recs, key=lambda r: r.mflops_per_node, reverse=True)
        top = recs[: max(1, len(recs) // 10)]
        return float(np.mean([r.fma_flop_fraction for r in top]))

    def walltime_by_nodes(self) -> list[NodeBin]:
        """Figure 2/3 data: one bin per distinct nodes-requested value."""
        recs = self.filtered()
        bins: dict[int, list[JobRecord]] = {}
        for r in recs:
            bins.setdefault(r.nodes_requested, []).append(r)
        out = []
        for nodes in sorted(bins):
            rs = bins[nodes]
            out.append(
                NodeBin(
                    nodes=nodes,
                    job_count=len(rs),
                    total_walltime_seconds=float(
                        sum(r.walltime_seconds for r in rs)
                    ),
                    mean_mflops_per_node=float(
                        np.mean([r.mflops_per_node for r in rs])
                    ),
                )
            )
        return out

    def history_for_nodes(self, nodes: int) -> list[JobRecord]:
        """Figure 4: the job-id-ordered history for one node count."""
        recs = [r for r in self.filtered() if r.nodes_requested == nodes]
        recs.sort(key=lambda r: r.job_id)
        return recs

    def most_popular_nodes(self) -> int:
        """The node count with the most accumulated walltime (§6: 16)."""
        bins = self.walltime_by_nodes()
        if not bins:
            raise ValueError("no accounted jobs")
        return max(bins, key=lambda b: b.total_walltime_seconds).nodes
