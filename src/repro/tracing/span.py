"""Spans: the unit of the tracing layer.

A span is one named interval of *simulated* time with a parent link, a
category, and free-form args — the same shape Chrome's trace-event
format and Perfetto use, so the exporters are a direct mapping.  Span
ids are small sequential strings (``s1``, ``s2``, …) assigned by the
tracer, which keeps recorded traces byte-reproducible for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

# ----------------------------------------------------------------------
# Categories (the ``cat`` field of every span)
# ----------------------------------------------------------------------

#: One whole campaign (root of the machine-wide timeline).
CAT_CAMPAIGN = "campaign"
#: One simulator event dispatch (zero sim-time duration).
CAT_SIM_EVENT = "sim.event"
#: One PBS scheduling pass.
CAT_SCHED = "pbs.sched"
#: A batch job's whole life, submit → epilogue (one tree per job).
CAT_JOB = "pbs.job"
#: Job lifecycle states under the root: ``queued`` and ``running``.
CAT_JOB_STATE = "pbs.state"
#: Prologue/epilogue counter snapshots.
CAT_JOB_SNAPSHOT = "pbs.snapshot"
#: Synthesized wall-time attribution segments under ``running``.
CAT_JOB_PHASE = "job.phase"
#: One 15-minute collector cron pass.
CAT_HPM = "hpm.collect"
#: Switch messages / exchanges (modeled duration).
CAT_SWITCH = "switch"
#: Node-level work phases (the phase-execution path).
CAT_NODE_PHASE = "node.phase"

#: The wall-time attribution buckets of the critical-path analyzer.
PHASE_KINDS = ("compute", "switch-wait", "io", "paging")


@dataclass
class Span:
    """One named interval of simulated time."""

    span_id: str
    name: str
    category: str
    start: float
    end: float | None = None
    parent_id: str | None = None
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Sim seconds covered; open spans report zero."""
        return (self.end - self.start) if self.end is not None else 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready flat form (the JSONL exporter's row)."""
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "cat": self.category,
            "start": self.start,
            "end": self.end,
            "args": self.args,
        }

    @classmethod
    def from_dict(cls, row: dict[str, Any]) -> "Span":
        return cls(
            span_id=row["id"],
            name=row["name"],
            category=row["cat"],
            start=row["start"],
            end=row["end"],
            parent_id=row.get("parent"),
            args=dict(row.get("args") or {}),
        )

    def rebase(self, *, time_offset: float = 0.0, id_offset: int = 0) -> "Span":
        """A copy shifted onto another clock/id space.

        Shard merges use this: shard *k*'s spans keep their internal
        structure but move to the campaign clock (``time_offset`` =
        shard start in seconds) and into a disjoint id range
        (``id_offset`` = ``k × SPAN_ID_STRIDE``), so merged traces stay
        unique-id'd and sortable by the exporters' ``(start, id)`` key.
        """
        return Span(
            span_id=_offset_id(self.span_id, id_offset),
            name=self.name,
            category=self.category,
            start=self.start + time_offset,
            end=None if self.end is None else self.end + time_offset,
            parent_id=(
                None if self.parent_id is None else _offset_id(self.parent_id, id_offset)
            ),
            args=dict(self.args),
        )


def _offset_id(span_id: str, offset: int) -> str:
    """Shift a tracer-assigned ``s<n>`` id by ``offset``."""
    if offset == 0:
        return span_id
    return f"s{int(span_id[1:]) + offset}"


def span_index(
    spans: Iterable[Span],
) -> tuple[dict[str, Span], dict[str | None, list[Span]]]:
    """``(by_id, children)`` maps for tree walks.

    ``children[None]`` lists the roots; child lists keep span-id order,
    which for tracer-assigned ids is creation order.
    """
    by_id: dict[str, Span] = {}
    children: dict[str | None, list[Span]] = {}
    for span in spans:
        by_id[span.span_id] = span
        children.setdefault(span.parent_id, []).append(span)
    return by_id, children
