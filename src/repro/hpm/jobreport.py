"""Per-job RS2HPM report files.

§3: the PBS prologue/epilogue scripts "obtain counter values at the
beginning and end of each job for these nodes.  These values are written
to a file for later processing and viewing by both users and system
personnel."  This module is that file format: a plain-text render of one
job's per-node counter deltas plus the headline derived rates, and a
parser so stored reports round-trip.
"""

from __future__ import annotations

from repro.hpm.derived import workload_rates
from repro.pbs.job import JobRecord
from repro.power2.counters import FLAT_NAMES

_HEADER = "# RS2HPM job report v1"

#: Report header key → (JobRecord field, parser).
_FIELDS = {
    "job_id": ("job_id", int),
    "user": ("user", int),
    "app": ("app_name", str),
    "nodes_requested": ("nodes_requested", int),
    "node_ids": ("node_ids", lambda text: tuple(int(x) for x in text.split(",") if x)),
    "submit_time": ("submit_time", float),
    "start_time": ("start_time", float),
    "end_time": ("end_time", float),
}
#: Derived-rate header lines: recomputed from the counters, never trusted.
_DERIVED = ("mflops_per_node", "system_user_fxu_ratio")

#: Matrix columns in the order a node section lists them: by name.
_COLUMNS = sorted(range(len(FLAT_NAMES)), key=FLAT_NAMES.__getitem__)


def render_job_report(record: JobRecord) -> str:
    """Render one finished job as the epilogue report text."""
    lines = [
        _HEADER,
        f"job_id: {record.job_id}",
        f"user: {record.user}",
        f"app: {record.app_name}",
        f"nodes_requested: {record.nodes_requested}",
        f"node_ids: {','.join(str(n) for n in record.node_ids)}",
        f"submit_time: {record.submit_time:.3f}",
        f"start_time: {record.start_time:.3f}",
        f"end_time: {record.end_time:.3f}",
    ]
    wall = record.walltime_seconds
    if wall > 0 and record.node_ids:
        rates = workload_rates(record.summed_deltas(), wall, len(record.node_ids))
        lines.append(f"mflops_per_node: {rates.mflops_total:.4f}")
        lines.append(f"system_user_fxu_ratio: {rates.system_user_fxu_ratio:.4f}")
    for nid, row in sorted(zip(record.node_ids, record.deltas[:, _COLUMNS].tolist())):
        lines.append(f"[node {nid}]")
        lines.extend(f"{FLAT_NAMES[c]} = {value}" for c, value in zip(_COLUMNS, row))
    return "\n".join(lines) + "\n"


def parse_job_report(text: str) -> JobRecord:
    """Parse a report back into a :class:`JobRecord`.

    Derived-rate lines are ignored (they are recomputed from the
    counters, never trusted from the file).  A malformed report — a bad
    value; an unknown or repeated field, counter or node section; a
    section for a node outside ``node_ids``, or a node without one —
    raises a one-line ``ValueError`` naming the line or the node.
    """
    lines = [(n, ln.rstrip()) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1] != _HEADER:
        raise ValueError("not an RS2HPM job report")
    fields: dict[str, object] = {}
    deltas: dict[int, dict[str, int]] = {}
    current: dict[str, int] | None = None
    for n, ln in lines[1:]:
        try:
            if ln.startswith("[node ") and ln.endswith("]"):
                nid = int(ln[len("[node ") : -1])
                if nid in deltas:
                    raise ValueError(f"second section for node {nid}")
                current = deltas[nid] = {}
            elif current is not None:
                name, _, value = ln.partition(" = ")
                if not value:
                    raise ValueError(f"malformed counter line: {ln!r}")
                if name.strip() in current:
                    raise ValueError(f"counter {name.strip()!r} repeated")
                current[name.strip()] = int(value)
            else:
                key, _, value = ln.partition(": ")
                field, parse = _FIELDS.get(key.strip(), (None, None))
                if not value or field in fields or (field is None and key.strip() not in _DERIVED):
                    raise ValueError(f"malformed, unknown or repeated header line: {ln!r}")
                if field is not None:
                    fields[field] = parse(value.strip())
        except ValueError as exc:
            raise ValueError(f"line {n}: {exc}") from None

    missing = sorted(key for key, (field, _) in _FIELDS.items() if field not in fields)
    if missing:
        raise ValueError(f"report missing fields: {missing}")
    return JobRecord.from_counter_deltas(deltas, **fields)
