"""Structured tracing across the simulation stack.

The second observability pillar (the first is :mod:`repro.telemetry`):
span trees over *simulated* time.  Every layer of the stack is
instrumented — simulator event dispatch, PBS job lifecycle, the
15-minute collector cron, the switch cost model and node phase
execution — producing one span tree per batch job plus a machine-wide
timeline, exportable to Chrome trace-event JSON (open it in Perfetto)
or compact JSONL, and analyzable into per-job critical paths.

Tracing is off by default everywhere (``tracer=None``) and a disabled
tracer records nothing, so untraced campaigns are byte-identical to
pre-tracing builds.  See ``docs/TRACING.md``.
"""

from repro.tracing.critical_path import (
    JobCriticalPath,
    analyze_jobs,
    machine_attribution,
    render_critical_path,
)
from repro.tracing.export import (
    read_jsonl,
    spans_to_chrome,
    spans_to_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.tracing.span import PHASE_KINDS, Span, span_index
from repro.tracing.summary import render_trace_summary, trace_summary
from repro.tracing.tracer import NULL_TRACER, Tracer

__all__ = [
    "Tracer",
    "NULL_TRACER",
    "Span",
    "span_index",
    "PHASE_KINDS",
    "JobCriticalPath",
    "analyze_jobs",
    "machine_attribution",
    "render_critical_path",
    "spans_to_chrome",
    "spans_to_jsonl",
    "write_chrome_trace",
    "write_jsonl",
    "read_jsonl",
    "validate_chrome_trace",
    "trace_summary",
    "render_trace_summary",
]
