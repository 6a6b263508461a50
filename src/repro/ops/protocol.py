"""The ops query protocol: newline-delimited JSON over a stream.

One request per line, one response per line, plus server-push frames
for alert subscriptions.  Chosen for debuggability — ``sp2-ops ask``
and ``nc`` both speak it — and because a line framing keeps the server
loop allocation-free on the happy path.

Frames:

* request  — ``{"op": <name>, ...operands}``
* response — ``{"ok": true, "op": <name>, ...}`` or
  ``{"ok": false, "op": <name>, "error": <code>, "message": <text>}``
* push     — ``{"push": "alert", "campaign": ..., "member": ...,
  "alert": {...}}`` (only after a ``subscribe``)

Error codes are stable strings (``bad-request``, ``unknown-op``,
``unknown-campaign``, ``unknown-metric``, ``unknown-job``,
``server-error``); exit-code mapping for the CLI lives with the CLI.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
from typing import Any

from repro.telemetry.rules import Alert
from repro.telemetry.store import SeriesSnapshot

PROTOCOL_VERSION = 1

#: Longest accepted request line (a query never needs more).
MAX_LINE_BYTES = 1 << 20

#: Ops the server understands (the ask CLI validates against this).
REQUEST_OPS = (
    "ping",
    "catalog",
    "metrics",
    "query",
    "jobs",
    "report",
    "alerts",
    "subscribe",
    "unsubscribe",
    "stats",
    "shutdown",
)

ERR_BAD_REQUEST = "bad-request"
ERR_UNKNOWN_OP = "unknown-op"
ERR_UNKNOWN_CAMPAIGN = "unknown-campaign"
ERR_UNKNOWN_METRIC = "unknown-metric"
ERR_UNKNOWN_JOB = "unknown-job"
ERR_SERVER = "server-error"


class ProtocolError(Exception):
    """A malformed frame (not UTF-8 JSON, not an object, or oversized)."""


def encode_message(obj: dict[str, Any]) -> bytes:
    """One frame: compact JSON + newline."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode() + b"\n"


def decode_message(line: bytes) -> dict[str, Any]:
    try:
        obj = json.loads(line)
    except RecursionError:
        raise ProtocolError("frame is nested too deeply") from None
    except ValueError as exc:
        # Bad JSON, bytes that are not UTF-8 (UnicodeDecodeError), or an
        # integer literal past the interpreter's digit limit.
        raise ProtocolError(f"frame is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(f"frame must be a JSON object, got {type(obj).__name__}")
    return obj


async def read_message(reader: asyncio.StreamReader) -> dict[str, Any] | None:
    """Read one frame; ``None`` on a clean EOF."""
    try:
        line = await reader.readline()
    except (ConnectionResetError, asyncio.LimitOverrunError) as exc:
        raise ProtocolError(str(exc)) from None
    if not line:
        return None
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"frame exceeds {MAX_LINE_BYTES} bytes")
    return decode_message(line)


def ok_response(op: str, **fields: Any) -> dict[str, Any]:
    return {"ok": True, "op": op, **fields}


def error_response(op: str, code: str, message: str) -> dict[str, Any]:
    return {"ok": False, "op": op, "error": code, "message": message}


# ----------------------------------------------------------------------
# Payload shaping
# ----------------------------------------------------------------------

def alert_to_json(alert: Alert) -> dict[str, Any]:
    out = dataclasses.asdict(alert)
    if out.get("span_id") is None:
        out.pop("span_id", None)
    return out


def alert_push(campaign: str, member: str | None, alert: Alert) -> dict[str, Any]:
    return {
        "push": "alert",
        "campaign": campaign,
        "member": member,
        "alert": alert_to_json(alert),
    }


def series_to_json(
    snap: SeriesSnapshot,
    *,
    t0: float | None = None,
    t1: float | None = None,
    points: bool = False,
    last: int | None = None,
) -> dict[str, Any]:
    """One series snapshot as a response payload.

    Summary statistics are always included; the raw window rides along
    only when ``points`` is requested (a thousand subscribed dashboards
    asking for summaries must not each ship the whole ring).  ``dropped``
    is always present — a served window silently missing evicted points
    is exactly the trust gap the drop counters exist to close.
    """
    times, values = snap.window(t0, t1)
    in_window = len(times)
    if last is not None and last > 0:
        times, values = times[-last:], values[-last:]
    out: dict[str, Any] = {
        "metric": snap.name,
        "count": snap.count,
        "dropped": snap.dropped,
        "in_window": in_window,
        "ewma": snap.ewma,
        "min": snap.min,
        "max": snap.max,
        "quantiles": {f"p{int(q * 100)}": v for q, v in sorted(snap.quantiles.items())},
    }
    latest = snap.latest()
    if latest is not None:
        out["last_time"], out["last"] = latest
    if points:
        out["times"] = [float(t) for t in times]
        out["values"] = [float(v) for v in values]
    return out
