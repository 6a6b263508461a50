"""PHPM — parallel hardware performance monitoring (Saphir, 1996).

§3 credits Bill Saphir with "valuable extensions of these tools to allow
monitoring of individual job performance, as well as global system
performance".  This module is that layer: given one job's per-node
counter deltas (from the PBS prologue/epilogue), it produces the
parallel view a message-passing programmer needs:

* per-counter reductions across the job's nodes (sum / min / max / mean);
* load-imbalance metrics (max/mean flop ratio — 1.0 is perfectly
  balanced; synchronous codes run at the speed of the slowest node);
* straggler identification, including the §6 case where the straggler
  is *paging* (its system-mode counts give it away).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.pbs.job import JobRecord
from repro.power2.counters import FLAT_COLUMN, FLAT_NAMES


@dataclass(frozen=True)
class CounterReduction:
    """One counter reduced across a job's nodes."""

    counter: str
    total: float
    mean: float
    minimum: float
    maximum: float

    @property
    def imbalance(self) -> float:
        """max/mean; 1.0 means perfectly balanced."""
        return self.maximum / self.mean if self.mean > 0 else 1.0


@dataclass(frozen=True)
class NodeDiagnosis:
    """Per-node health within one job."""

    node_id: int
    flops: float
    flop_share: float
    system_user_fxu_ratio: float

    @property
    def paging_suspect(self) -> bool:
        """§6's signature on a single node."""
        return self.system_user_fxu_ratio > 1.0


#: :meth:`JobRecord.flops_from_deltas` as a weight per counter column.
_FLOP_WEIGHTS = np.array([JobRecord.flops_from_deltas({n: 1}) for n in FLAT_NAMES], dtype=np.int64)
_FXU = [FLAT_COLUMN[name] for name in ("user.fxu0", "user.fxu1", "system.fxu0", "system.fxu1")]


def _sys_user_ratio(user: int, system: int) -> float:
    if user == 0:
        return float("inf") if system else 0.0
    return system / user


class ParallelJobReport:
    """The PHPM view of one finished job: columns of its ``deltas``
    matrix, with rows in sorted-node order."""

    def __init__(self, record: JobRecord) -> None:
        if not record.node_ids:
            raise ValueError(f"job {record.job_id} has no per-node counter data")
        self.record = record
        order = sorted(range(len(record.node_ids)), key=record.node_ids.__getitem__)
        self._node_ids = [record.node_ids[i] for i in order]
        self._rows = record.deltas[order]

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def reduce(self, counter: str) -> CounterReduction:
        """Reduce one flat-labelled counter across the job's nodes."""
        if counter not in FLAT_COLUMN:
            raise ValueError(f"unknown counter {counter!r}")
        values = self._rows[:, FLAT_COLUMN[counter]].astype(float)
        return CounterReduction(
            counter=counter,
            total=float(values.sum()),
            mean=float(values.mean()),
            minimum=float(values.min()),
            maximum=float(values.max()),
        )

    def reductions(self, counters: list[str]) -> dict[str, CounterReduction]:
        return {c: self.reduce(c) for c in counters}

    # ------------------------------------------------------------------
    # Balance
    # ------------------------------------------------------------------
    def node_flops(self) -> np.ndarray:
        return self._rows @ _FLOP_WEIGHTS

    def flop_imbalance(self) -> float:
        """max/mean flop ratio across nodes; 1.0 is perfect balance."""
        flops = self.node_flops()
        mean = flops.mean()
        return float(flops.max() / mean) if mean > 0 else 1.0

    def diagnose_nodes(self) -> list[NodeDiagnosis]:
        """Per-node flop share and paging suspicion, worst first."""
        flops = self.node_flops()
        total = flops.sum()
        fxu = self._rows[:, _FXU].tolist()
        out = [
            NodeDiagnosis(
                node_id=nid,
                flops=float(f),
                flop_share=float(f / total) if total > 0 else 0.0,
                system_user_fxu_ratio=_sys_user_ratio(u0 + u1, s0 + s1),
            )
            for nid, f, (u0, u1, s0, s1) in zip(self._node_ids, flops, fxu)
        ]
        out.sort(key=lambda d: d.flops)
        return out

    def stragglers(self, *, threshold: float = 0.8) -> list[NodeDiagnosis]:
        """Nodes producing less than ``threshold`` × the mean flops."""
        flops = self.node_flops()
        mean = flops.mean()
        if mean == 0:
            return []
        return [d for d in self.diagnose_nodes() if d.flops < threshold * mean]

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def summary(self) -> str:
        r = self.record
        flops = self.node_flops()
        lines = [
            f"PHPM job {r.job_id} ({r.app_name}): {len(self._node_ids)} nodes, "
            f"{r.walltime_seconds:.0f}s, {r.total_mflops:.1f} Mflops total",
            f"  per-node Mflops: min {flops.min() / r.walltime_seconds / 1e6:.2f}  "
            f"mean {flops.mean() / r.walltime_seconds / 1e6:.2f}  "
            f"max {flops.max() / r.walltime_seconds / 1e6:.2f}  "
            f"(imbalance {self.flop_imbalance():.2f})",
        ]
        stragglers = self.stragglers()
        if stragglers:
            worst = stragglers[0]
            cause = "paging" if worst.paging_suspect else "unknown"
            lines.append(
                f"  stragglers: {len(stragglers)} node(s); worst node "
                f"{worst.node_id} at {worst.flop_share:.1%} share "
                f"(suspected cause: {cause})"
            )
        return "\n".join(lines)
