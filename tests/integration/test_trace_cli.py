"""The sp2-trace command-line interface, end to end on tiny campaigns."""

import json

import pytest

from repro.trace_cli import build_parser, main
from repro.tracing import read_jsonl, validate_chrome_trace

_RECORD = ["record", "--seed", "42", "--days", "1", "--nodes", "16", "--users", "6"]


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One tiny seeded recording shared by the command tests."""
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    rc = main(_RECORD + ["--out", str(path)])
    assert rc == 0
    return path


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_record_defaults(self):
        args = build_parser().parse_args(["record"])
        assert args.seed == 0 and args.days == 2 and args.nodes == 16

    def test_export_format_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["export", "t.jsonl", "--format", "xml", "--out", "o"]
            )


class TestRecord:
    def test_record_writes_spans(self, recorded, capsys):
        spans = read_jsonl(recorded)
        assert len(spans) > 0
        assert any(s.category == "pbs.job" for s in spans)
        assert any(s.category == "campaign" for s in spans)

    def test_record_is_deterministic(self, recorded, tmp_path):
        """The acceptance bar: same seed, byte-identical trace file."""
        again = tmp_path / "again.jsonl"
        assert main(_RECORD + ["--out", str(again)]) == 0
        assert again.read_bytes() == recorded.read_bytes()

    def test_record_can_emit_chrome_directly(self, tmp_path):
        out = tmp_path / "t.jsonl"
        chrome = tmp_path / "t.json"
        rc = main(_RECORD + ["--out", str(out), "--chrome", str(chrome)])
        assert rc == 0
        assert validate_chrome_trace(json.loads(chrome.read_text())) == []


class TestExport:
    def test_chrome_export_is_valid(self, recorded, tmp_path, capsys):
        out = tmp_path / "chrome.json"
        rc = main(["export", str(recorded), "--format", "chrome", "--out", str(out)])
        assert rc == 0
        obj = json.loads(out.read_text())
        assert validate_chrome_trace(obj) == []
        assert any(ev["ph"] == "X" for ev in obj["traceEvents"])

    def test_empty_trace_rejected(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        rc = main(["export", str(empty), "--out", str(tmp_path / "o.json")])
        assert rc == 1


class TestAnalysis:
    def test_critical_path_prints_every_job(self, recorded, capsys):
        rc = main(["critical-path", str(recorded)])
        assert rc == 0
        out = capsys.readouterr().out
        jobs = [s for s in read_jsonl(recorded) if s.category == "pbs.job"]
        assert out.count("critical path:") == len(jobs)
        assert "machine-wide attribution" in out

    def test_critical_path_single_job_filter(self, recorded, capsys):
        jobs = [s for s in read_jsonl(recorded) if s.category == "pbs.job"]
        job_id = jobs[0].args["job_id"]
        rc = main(["critical-path", str(recorded), "--job", str(job_id)])
        assert rc == 0
        assert capsys.readouterr().out.count("critical path:") == 1

    def test_unknown_job_id_fails(self, recorded, capsys):
        assert main(["critical-path", str(recorded), "--job", "999999"]) == 2

    def test_summary_counts_spans(self, recorded, capsys):
        rc = main(["summary", str(recorded)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "jobs traced" in out
        assert "by category:" in out


class TestExitCodes:
    def test_record_zero_spans_exits_1(self, tmp_path, capsys, monkeypatch):
        """A recording that captured nothing must not read as success."""
        import repro.core.study as study_mod
        import repro.trace_cli as trace_cli
        from repro.tracing.tracer import Tracer

        # The campaign's tracer records nothing: every span call is a no-op.
        monkeypatch.setattr(study_mod, "Tracer", lambda: Tracer(enabled=False))
        out = tmp_path / "trace.jsonl"
        rc = trace_cli.main(["record", "--days", "1", "--out", str(out)])
        assert rc == 1
        assert "zero spans" in capsys.readouterr().err
        assert not out.exists()
