"""Trace exporters: compact JSONL and Chrome trace-event JSON.

JSONL is the recording format (`sp2-trace record` writes it): one span
per line, keys sorted, floats in Python ``repr`` form — two recordings
of the same seed are byte-identical files.

The Chrome trace-event form (`sp2-trace export --format chrome`) loads
directly in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``:
each span becomes a complete (``"ph": "X"``) event with microsecond
timestamps of *simulated* time.  Track layout:

* pid 0 — the machine: sim dispatch + scheduler (tid 0), the 15-minute
  collector (tid 1), the node cost model (tid 2);
* pid = job id — one process per batch job, so a flagged job's
  queued → running → phase tree reads as one self-contained track.
"""

from __future__ import annotations

import json
import pathlib
import re
from typing import Any, Iterable

from repro.tracing.span import (
    CAT_HPM,
    CAT_JOB,
    CAT_NODE_PHASE,
    Span,
    span_index,
)
from repro.util.checks import check_number, check_object, cut, describe, describe_names

#: A span id: ``s`` and a number (the exporters sort by the number).
_SPAN_ID = re.compile(r"s[0-9]+")

#: Machine-track thread ids by category (pid 0).
_MACHINE_TIDS = {CAT_HPM: 1, CAT_NODE_PHASE: 2}
_MACHINE_TID_NAMES = {0: "sim+scheduler", 1: "rs2hpm collector", 2: "cost models"}


def _sorted(spans: Iterable[Span]) -> list[Span]:
    """Deterministic order: sim start time, then creation id."""
    return sorted(spans, key=lambda s: (s.start, int(s.span_id.lstrip("s"))))


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------

def spans_to_jsonl(spans: Iterable[Span]) -> str:
    lines = [json.dumps(s.to_dict(), sort_keys=True) for s in _sorted(spans)]
    return "\n".join(lines) + ("\n" if lines else "")


def read_jsonl(path: str | pathlib.Path) -> list[Span]:
    """The spans of a JSONL trace, checked as they load.

    Every line is a span object with an ``s<n>`` id no other line has, a
    string name and category, a finite ``start`` and an ``end`` no
    earlier than it (``null``: still open), integer ids on a job root,
    and parent links never loop back.  Anything else is a one-line
    ``ValueError`` naming the line, before an exporter or analysis walks
    the spans (a parent cycle would walk forever)."""
    spans: list[Span] = []
    line_of: dict[str, int] = {}
    for lineno, line in enumerate(pathlib.Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        where = f"line {lineno}"
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{where}: not JSON ({exc.msg})") from None
        span = _checked_span(row, where)
        if span.span_id in line_of:
            raise ValueError(
                f"{where}: span id {describe(span.span_id)} is already on line "
                f"{line_of[span.span_id]}"
            )
        line_of[span.span_id] = lineno
        spans.append(span)
    _refuse_parent_cycles(spans, line_of)
    return spans


def _checked_span(row: Any, where: str) -> Span:
    """``row`` as a span, or a one-line ``ValueError`` saying what is
    wrong with it."""
    if not isinstance(row, dict):
        raise ValueError(f"{where}: a span is a JSON object, got {describe(row)}")
    missing = [key for key in ("id", "name", "cat", "start", "end") if key not in row]
    if missing:
        raise ValueError(f"{where}: span has no {describe_names(missing)}")
    span_id = row["id"]
    if not (isinstance(span_id, str) and _SPAN_ID.fullmatch(span_id)):
        raise ValueError(f"{where}: span id must be 's' and a number, got {describe(span_id)}")
    for key in ("name", "cat"):
        if not isinstance(row[key], str):
            raise ValueError(f"{where}: span {key} must be a string, got {describe(row[key])}")
    parent, args = row.get("parent"), row.get("args")
    if parent is not None and not isinstance(parent, str):
        raise ValueError(f"{where}: span parent must be a span id, got {describe(parent)}")
    if args is not None:
        check_object(args, f"{where}: span args")
    if row["cat"] == CAT_JOB:
        # The exporters and analyses read a job root's ids as integers.
        for key in ("job_id", "nodes"):
            if args and key in args:
                check_number(args[key], f"{where}: job span {key}", integer=True, positive=None)
    start, end = row["start"], row["end"]
    check_number(start, f"{where}: span start", positive=None)
    if end is not None:
        check_number(end, f"{where}: span end", positive=None)
        if end < start:
            raise ValueError(
                f"{where}: span ends before it starts ({cut(repr(start))} -> {cut(repr(end))})"
            )
    return Span.from_dict(row)


def _refuse_parent_cycles(spans: list[Span], line_of: dict[str, int]) -> None:
    """A ``ValueError`` naming a span whose parent links lead back to it.
    Each span's ancestry is walked once: a walk stops at a span already
    known to reach a root, or at a parent the trace does not hold."""
    parent_of = {span.span_id: span.parent_id for span in spans}
    rooted: set[str] = set()
    for span in spans:
        chain: set[str] = set()
        node = span.span_id
        while node in parent_of and node not in rooted:
            if node in chain:
                raise ValueError(
                    f"line {line_of[node]}: span {describe(node)} is its own ancestor "
                    "(its parent links form a cycle)"
                )
            chain.add(node)
            node = parent_of[node]
        rooted.update(chain)


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------

def _job_pid(span: Span, by_id: dict[str, Span]) -> int | None:
    """Job id of the ``pbs.job`` root above ``span``, if any."""
    node: Span | None = span
    while node is not None:
        if node.category == CAT_JOB:
            return int(node.args.get("job_id", 0))
        node = by_id.get(node.parent_id) if node.parent_id else None
    return None


def spans_to_chrome(spans: Iterable[Span]) -> dict[str, Any]:
    """The trace-event JSON object (``json.dump`` it to a file)."""
    ordered = _sorted(spans)
    by_id, _ = span_index(ordered)
    events: list[dict[str, Any]] = []
    pids_seen: dict[int, str] = {}
    for span in ordered:
        job = _job_pid(span, by_id)
        if job is not None:
            pid, tid = job, 0
            pids_seen.setdefault(pid, f"job {job}")
        else:
            pid, tid = 0, _MACHINE_TIDS.get(span.category, 0)
            pids_seen.setdefault(0, "sp2 machine")
        args = dict(span.args)
        args["span_id"] = span.span_id
        if span.parent_id:
            args["parent_id"] = span.parent_id
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": round(span.start * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
    meta: list[dict[str, Any]] = []
    for pid in sorted(pids_seen):
        meta.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": pids_seen[pid]},
            }
        )
        tids = _MACHINE_TID_NAMES if pid == 0 else {0: "lifecycle"}
        for tid, label in sorted(tids.items()):
            meta.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": label},
                }
            )
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    spans: Iterable[Span], path: str | pathlib.Path
) -> pathlib.Path:
    path = pathlib.Path(path)
    path.write_text(json.dumps(spans_to_chrome(spans), sort_keys=True) + "\n")
    return path


def validate_chrome_trace(obj: Any) -> list[str]:
    """Schema check for trace-event JSON; returns problems (empty = ok).

    Covers what Perfetto's importer actually requires: a ``traceEvents``
    array of objects with name/ph/pid/tid, timestamps on duration
    events, and non-negative microsecond times.
    """
    errors: list[str] = []
    if not isinstance(obj, dict):
        return ["top level must be an object"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents array"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                errors.append(f"{where}: missing {key!r}")
        ph = ev.get("ph")
        if ph not in ("X", "B", "E", "M", "i", "I", "C"):
            errors.append(f"{where}: unknown phase {ph!r}")
        if ph == "X":
            if not isinstance(ev.get("ts"), (int, float)) or ev["ts"] < 0:
                errors.append(f"{where}: complete event needs ts >= 0")
            if not isinstance(ev.get("dur"), (int, float)) or ev["dur"] < 0:
                errors.append(f"{where}: complete event needs dur >= 0")
        if "args" in ev and not isinstance(ev["args"], dict):
            errors.append(f"{where}: args must be an object")
    return errors
