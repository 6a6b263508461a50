"""Exporter formats: JSONL roundtrip and Chrome trace-event schema."""

import json

import pytest
from hypothesis import HealthCheck, given, settings

from repro.tracing import (
    Span,
    analyze_jobs,
    read_jsonl,
    render_critical_path,
    render_trace_summary,
    spans_to_chrome,
    spans_to_jsonl,
    trace_summary,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.tracing.span import CAT_HPM, CAT_JOB, CAT_JOB_STATE
from tests.spec_fuzz import mutated


def _sample_spans():
    return [
        Span("s1", "job-1", CAT_JOB, 0.0, 100.0, None, {"job_id": 1}),
        Span("s2", "queued", CAT_JOB_STATE, 0.0, 10.0, "s1"),
        Span("s3", "running", CAT_JOB_STATE, 10.0, 100.0, "s1"),
        Span("s4", "cron-pass", CAT_HPM, 900.0, 900.0, None, {"nodes": 4}),
    ]


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(spans_to_jsonl(_sample_spans()))
        assert read_jsonl(path) == _sample_spans()

    def test_one_sorted_json_object_per_line(self):
        text = spans_to_jsonl(_sample_spans())
        lines = text.strip().split("\n")
        assert len(lines) == 4
        for line in lines:
            row = json.loads(line)
            assert list(row) == sorted(row)

    def test_serialization_is_order_independent(self):
        spans = _sample_spans()
        assert spans_to_jsonl(spans) == spans_to_jsonl(list(reversed(spans)))


def _row(span_id="s1", parent=None, **fields):
    return json.dumps(
        {"id": span_id, "parent": parent, "name": "a", "cat": CAT_JOB_STATE,
         "start": 0.0, "end": 1.0, "args": {}, **fields}
    )


class TestJsonlRefusals:
    """A malformed span file is refused at load, in one line naming the
    line, before an exporter walks it."""

    @pytest.mark.parametrize(
        "lines, message",
        [
            ([_row("s1"), _row("s1")], "line 2: span id 's1' is already on line 1"),
            ([_row("s1", "s2"), _row("s2", "s1")],
             "line 1: span 's1' is its own ancestor (its parent links form a cycle)"),
            ([_row("s1", "s1")], "line 1: span 's1' is its own ancestor"),
            ([_row("s1"), _row("s2", "s3"), _row("s3", "s4"), _row("s4", "s2")],
             "line 2: span 's2' is its own ancestor"),
            ([_row(end="zz")], "line 1: span end must be a number, got 'zz'"),
            ([_row(start=None)], "line 1: span start must be a number, got NoneType None"),
            ([_row(start=True)], "line 1: span start must be a number, got bool True"),
            ([_row(start=5.0, end=1.0)], "line 1: span ends before it starts (5.0 -> 1.0)"),
            ([_row("x1")], "line 1: span id must be 's' and a number, got 'x1'"),
            ([_row(), "", "[1]"], "line 3: a span is a JSON object, got list [1]"),
            ([_row(), "{"], "line 2: not JSON"),
            (['{"id": "s1", "cat": "x", "start": 0, "end": null}'], "line 1: span has no name"),
            ([_row(cat=CAT_JOB, args={"job_id": "x"})],
             "line 1: job span job_id must be an integer, got 'x'"),
        ],
        ids=["duplicate-id", "cycle", "own-parent", "cycle-below-a-root", "end-not-a-number",
             "start-null", "start-bool", "end-before-start", "id-format", "not-an-object",
             "not-json", "no-name", "job-id-not-an-integer"],
    )
    def test_refused(self, tmp_path, lines, message):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            read_jsonl(path)
        assert str(err.value).startswith(message)
        assert "\n" not in str(err.value)

    def test_an_open_span_and_a_missing_parent_load(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        path.write_text(_row("s1", end=None) + "\n" + _row("s2", "s9") + "\n")
        spans = read_jsonl(path)
        assert [(s.span_id, s.end, s.parent_id) for s in spans] == [
            ("s1", None, None),
            ("s2", 1.0, "s9"),
        ]


SPAN_FIELDS = ("id", "parent", "name", "cat", "start", "end", "args")
TRACE = {"spans": [s.to_dict() for s in _sample_spans()]}
TRACE_PATHS = [("spans", i) for i in range(4)] + [
    ("spans", i, key) for i in range(4) for key in SPAN_FIELDS
] + [("spans", 0, "args", "job_id")]


class TestMutatedTraces:
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(document=mutated(TRACE, TRACE_PATHS))
    def test_loads_or_is_refused_in_one_line(self, tmp_path, document):
        """A mutated span file is refused in one line, or every verb of
        ``sp2-trace`` runs on it to the end."""
        path = tmp_path / "t.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in document["spans"]))
        try:
            spans = read_jsonl(path)
        except ValueError as err:
            assert "\n" not in str(err)
            return
        validate_chrome_trace(spans_to_chrome(spans))
        for job in analyze_jobs(spans):
            render_critical_path(job)
        render_trace_summary(trace_summary(spans))


class TestChrome:
    def test_export_passes_own_validator(self):
        assert validate_chrome_trace(spans_to_chrome(_sample_spans())) == []

    def test_job_spans_get_their_own_pid_track(self):
        obj = spans_to_chrome(_sample_spans())
        by_name = {
            ev["name"]: ev for ev in obj["traceEvents"] if ev["ph"] == "X"
        }
        # The job tree lands on pid = job_id; machine spans on pid 0.
        assert by_name["job-1"]["pid"] == 1
        assert by_name["queued"]["pid"] == 1
        assert by_name["running"]["pid"] == 1
        assert by_name["cron-pass"]["pid"] == 0

    def test_timestamps_are_microseconds(self):
        obj = spans_to_chrome(_sample_spans())
        running = next(
            ev for ev in obj["traceEvents"]
            if ev["ph"] == "X" and ev["name"] == "running"
        )
        assert running["ts"] == 10.0 * 1e6
        assert running["dur"] == 90.0 * 1e6

    def test_metadata_names_tracks(self):
        obj = spans_to_chrome(_sample_spans())
        meta = [ev for ev in obj["traceEvents"] if ev["ph"] == "M"]
        names = {ev["name"] for ev in meta}
        assert "process_name" in names and "thread_name" in names

    def test_write_is_deterministic(self, tmp_path):
        a = write_chrome_trace(_sample_spans(), tmp_path / "a.json")
        b = write_chrome_trace(_sample_spans(), tmp_path / "b.json")
        assert a.read_bytes() == b.read_bytes()
        assert validate_chrome_trace(json.loads(a.read_text())) == []


class TestValidator:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([]) != []

    def test_rejects_missing_trace_events(self):
        assert validate_chrome_trace({}) != []

    def test_rejects_bad_phase(self):
        obj = {"traceEvents": [{"name": "x", "ph": "Z", "pid": 0, "tid": 0}]}
        assert any("ph" in e for e in validate_chrome_trace(obj))

    def test_rejects_complete_event_without_duration(self):
        obj = {"traceEvents": [{"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": 1}]}
        assert validate_chrome_trace(obj) != []

    def test_rejects_negative_duration(self):
        obj = {
            "traceEvents": [
                {"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": 1, "dur": -5}
            ]
        }
        assert validate_chrome_trace(obj) != []
