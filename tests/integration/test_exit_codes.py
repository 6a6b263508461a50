"""The repo-wide 0/1/2 exit-code contract (CONTRIBUTING.md), enforced
uniformly across every sp2-* entry point."""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import re
import signal
import subprocess
import sys

import pytest

import repro.cli
import repro.fleet_cli
import repro.ops_cli
import repro.sweep_cli
import repro.trace_cli
from repro.core.study import StudyConfig
from repro.sweep.cache import CELL_FIELDS

#: Every installed console entry point (pyproject [project.scripts]).
ENTRY_POINTS = [
    pytest.param(repro.cli.main, id="sp2-study"),
    pytest.param(repro.ops_cli.main, id="sp2-ops"),
    pytest.param(repro.trace_cli.main, id="sp2-trace"),
    pytest.param(repro.fleet_cli.main, id="sp2-fleet"),
    pytest.param(repro.sweep_cli.main, id="sp2-sweep"),
]


@pytest.mark.parametrize("main", ENTRY_POINTS)
def test_unknown_flag_is_usage_error(main, capsys):
    with pytest.raises(SystemExit) as e:
        main(["--no-such-flag"])
    assert e.value.code == 2


@pytest.mark.parametrize("main", ENTRY_POINTS)
def test_help_exits_zero(main, capsys):
    with pytest.raises(SystemExit) as e:
        main(["--help"])
    assert e.value.code == 0


class TestOperationalFailures:
    """Exit 1: the command ran but measured nothing."""

    def test_sweep_zero_cell_plan(self, tmp_path, capsys):
        spec = tmp_path / "s.yaml"
        spec.write_text("name: s\naxes:\n  tlb_entries: [256, 512]\n")
        rc = repro.sweep_cli.main(
            [
                "plan", "--spec", str(spec),
                "--only", "tlb_entries=256", "--only", "tlb_entries=512",
            ]
        )
        assert rc == 1

    def test_sweep_zero_job_cell(self, tmp_path, capsys):
        spec = tmp_path / "s.yaml"
        spec.write_text(
            "name: s\nbase:\n  n_days: 1\n  n_nodes: 8\n  n_users: 2\n"
            "  demand_mean: 0.001\n  seed: 8\n"
        )
        assert repro.sweep_cli.main(["run", "--spec", str(spec)]) == 1


class TestUsageErrors:
    """Exit 2: the request itself was wrong."""

    def test_study_resume_without_checkpoint_dir(self, capsys):
        assert repro.cli.main(["--resume"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["--fault-profile", "bogus"], ["repeat", "--days", "0", "--seeds", "0"]],
        ids=["study", "repeat"],
    )
    def test_study_bad_config_is_one_line_error(self, argv, capsys):
        assert repro.cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["--days", "1", "--nodes", "8", "--users", "2"],
            ["repeat", "--days", "1", "--nodes", "8", "--users", "2", "--seeds", "0"],
        ],
        ids=["study", "repeat"],
    )
    def test_accrual_backend_flag_is_refused(self, argv, capsys):
        """Counters accrue in one store; there is no backend to pick."""
        with pytest.raises(SystemExit) as e:
            repro.cli.main([*argv, "--accrual-backend", "scalar"])
        assert e.value.code == 2
        assert "unrecognized arguments: --accrual-backend scalar" in capsys.readouterr().err

    def test_study_config_refuses_accrual_backend(self):
        with pytest.raises(TypeError, match="accrual_backend"):
            StudyConfig(accrual_backend="scalar")
        assert StudyConfig().accrual_backend == "auto"

    def test_sweep_bad_spec(self, tmp_path, capsys):
        spec = tmp_path / "s.yaml"
        spec.write_text("name: s\naxes:\n  bogus: [1]\n")
        assert repro.sweep_cli.main(["plan", "--spec", str(spec)]) == 2


# ----------------------------------------------------------------------
# Every bad request is refused the same way
# ----------------------------------------------------------------------
#: A campaign small enough that a command which accepts it runs at once.
TINY = ["--days", "2", "--nodes", "8", "--users", "2"]
MISSING = "/nonexistent/input.json"

study, ops, trace = repro.cli.main, repro.ops_cli.main, repro.trace_cli.main
fleet, sweep = repro.fleet_cli.main, repro.sweep_cli.main

#: (entry point, argv, exit code, REPRO_CRASH_SHARD); a ``{name}`` in
#: argv is the path of :data:`INPUTS`' file of that name.  Every case
#: failed another way before (a traceback, exit 1, or a silent run).
MATRIX = [
    # Exit 2, was a traceback.
    pytest.param(study, [*TINY, "--shard-days", "0"], 2, None, id="study-shard-days-0"),
    pytest.param(study, [*TINY, "--shard-attempts", "0"], 2, None, id="study-shard-attempts-0"),
    pytest.param(study, ["repeat", *TINY, "--shard-days", "0", "--seeds", "0"], 2, None,
                 id="repeat-shard-days-0"),
    pytest.param(trace, ["record", "--days", "0"], 2, None, id="trace-record-days-0"),
    pytest.param(trace, ["record", "--nodes", "-1"], 2, None, id="trace-record-nodes-neg"),
    pytest.param(ops, ["alerts", *TINY, "--fault-profile", "bogus"], 2, None,
                 id="ops-fault-profile-bogus"),
    pytest.param(study, [*TINY, "--seed", "-1"], 2, None, id="study-seed-neg"),
    pytest.param(ops, ["alerts", *TINY, "--seed", "-1"], 2, None, id="ops-seed-neg"),
    pytest.param(trace, ["record", *TINY, "--seed", "-1"], 2, None, id="trace-seed-neg"),
    pytest.param(fleet, ["run", "--days", "2", "--seed", "-1"], 2, None, id="fleet-seed-neg"),
    pytest.param(study, ["repeat", *TINY, "--seeds", "0,-1"], 2, None, id="repeat-seeds-neg"),
    pytest.param(trace, ["summary", MISSING], 2, None, id="trace-summary-missing"),
    pytest.param(trace, ["export", MISSING, "--out", MISSING], 2, None,
                 id="trace-export-missing"),
    pytest.param(trace, ["critical-path", MISSING], 2, None, id="trace-critical-path-missing"),
    pytest.param(fleet, ["run", "--spec", "{tlb_511_fleet}"], 2, None, id="fleet-tlb-entries-511"),
    # Exit 2, was a hang: the Chrome exporter walked the parent cycle.
    pytest.param(trace, ["export", "{trace_cycle}", "--out", MISSING], 2, None,
                 id="trace-export-parent-cycle"),
    # Exit 2, was an AttributeError traceback.
    pytest.param(sweep, ["report", "{sweep_cell_string}"], 2, None, id="sweep-report-cell-string"),
    pytest.param(sweep, ["compare", "{sweep_cell_string}", "base", "base"], 2, None,
                 id="sweep-compare-cell-string"),
    # Exit 2, was a RecursionError traceback.
    pytest.param(sweep, ["plan", "--spec", "{deep_json}"], 2, None, id="sweep-spec-deep-json"),
    pytest.param(fleet, ["run", "--spec", "{deep_json}"], 2, None, id="fleet-spec-deep-json"),
    pytest.param(sweep, ["plan", "--spec", "{deep_yaml}"], 2, None, id="sweep-spec-deep-yaml"),
    # Exit 2, was one error line of about 3,000 characters.
    pytest.param(sweep, ["plan", "--spec", "{long_seed_sweep}"], 2, None,
                 id="sweep-base-seed-long-list"),
    pytest.param(fleet, ["run", "--spec", "{long_n_nodes_fleet}"], 2, None,
                 id="fleet-member-n-nodes-long-list"),
    # Exit 2, was exit 1 through SystemExit("error: ...").
    pytest.param(study, ["repeat", *TINY, "--seeds", "1,x"], 2, None, id="repeat-seeds-bad"),
    pytest.param(fleet, ["report", MISSING], 2, None, id="fleet-report-missing"),
    pytest.param(fleet, ["run", "--spec", MISSING], 2, None, id="fleet-spec-missing"),
    pytest.param(sweep, ["report", MISSING], 2, None, id="sweep-report-missing"),
    pytest.param(sweep, ["compare", MISSING, "a", "b"], 2, None, id="sweep-compare-missing"),
    # Exit 2, ran without complaint.
    pytest.param(study, [*TINY, "--workers", "0"], 2, None, id="study-workers-0"),
    pytest.param(study, ["repeat", *TINY, "--seeds", "0", "--workers", "0"], 2, None,
                 id="repeat-workers-0"),
    pytest.param(sweep, ["run", "--spec", "{spec}", "--workers", "0"], 2, None,
                 id="sweep-workers-0"),
    pytest.param(sweep, ["run", "--spec", "{page_kb_3_sweep}"], 2, None, id="sweep-page-kb-3"),
    pytest.param(sweep, ["report", "{sweep_cell_no_metrics}"], 2, None,
                 id="sweep-report-cell-no-metrics"),
    pytest.param(sweep, ["compare", "{sweep_cell_no_metrics}", "base", "base"], 2, None,
                 id="sweep-compare-cell-no-metrics"),
    # Exit 2, a removed flag that the parser took before.
    pytest.param(ops, ["serve", "--max-series", "4"], 2, None, id="ops-serve-max-series"),
    # Exit 1 in one line, was a ShardExecutionError traceback.
    pytest.param(ops, ["alerts", *TINY, "--shard-days", "1"], 1, "0", id="ops-shard-crash"),
    pytest.param(study, ["repeat", *TINY, "--seeds", "0", "--shard-days", "1"], 1, "0",
                 id="repeat-shard-crash"),
    pytest.param(fleet, ["run", "--days", "2", "--shard-days", "1"], 1, "0",
                 id="fleet-shard-crash"),
    # Exit 1 in one line, was a BrokenProcessPool traceback.
    pytest.param(study, ["repeat", *TINY, "--seeds", "0,1", "--shard-days", "1",
                         "--workers", "2"], 1, "0", id="repeat-workers-2-shard-crash"),
]


#: Input files the matrix names: a valid one-cell sweep spec, the same
#: cell on 3 kB pages, a fleet whose member has an odd TLB entry count
#: for a 2-way TLB, documents nested deeper than a decoder can recurse
#: (100,000 JSON arrays; 3,000 YAML-subset mappings, each one space
#: deeper than its parent), a list of 1,000 numbers where one number
#: belongs, and saved sweep documents whose one cell is a string or
#: lacks its metrics.
CELL = "name: s\nbase:\n  n_days: 1\n  n_nodes: 8\n  n_users: 2\n"
LONG_LIST = "[" + ", ".join(["0"] * 1000) + "]"
SAVED_CELL = {**dict.fromkeys(CELL_FIELDS), "name": "base", "overrides": {}, "metrics": {}}


def sweep_document(cell) -> str:
    """A ``sp2-sweep run --out`` document holding the one ``cell``."""
    sweep = {"name": "s", "cells": [cell], "executed": 1, "reused": 0}
    return json.dumps({"spec": {"name": "s", "axes": {}}, "sweep": sweep})


SPAN = '{{"id": "{}", "parent": "{}", "name": "a", "cat": "pbs.state", "start": 0.0, "end": 1.0}}\n'
INPUTS = {
    "trace_cycle": SPAN.format("s1", "s2") + SPAN.format("s2", "s1"),
    "spec": CELL,
    "page_kb_3_sweep": CELL + "  page_kb: 3\n",
    "tlb_511_fleet": '{"n_days": 1, "n_users": 2, "members": '
    '[{"name": "a", "n_nodes": 8, "tlb_entries": 511}]}',
    "deep_json": "[" * 100_000 + "]" * 100_000,
    "deep_yaml": "".join(f"{' ' * depth}k{depth}:\n" for depth in range(3000)),
    "long_seed_sweep": f'{{"name": "s", "base": {{"seed": {LONG_LIST}}}}}',
    "long_n_nodes_fleet": '{"n_days": 1, "n_users": 2, "members": '
    f'[{{"name": "a", "n_nodes": {LONG_LIST}}}]}}',
    "sweep_cell_string": sweep_document("oops"),
    "sweep_cell_no_metrics": sweep_document(
        {k: v for k, v in SAVED_CELL.items() if k != "metrics"}
    ),
}

#: Longest refusal line the matrix accepts: a refusal names what was
#: wrong and echoes at most 80 characters of the offending value
#: (``repro.util.checks.describe``), never the whole value.
MAX_ERROR_LINE = 200

#: Seconds a matrix case may run: a refusal that hangs fails instead of
#: stalling the suite.
CASE_TIMEOUT = 60


class CaseTimedOut(BaseException):
    """Raised into a matrix case that outran :data:`CASE_TIMEOUT` (a
    BaseException, so no ``except Exception`` in the code under test
    swallows it)."""


@contextlib.contextmanager
def time_limit(seconds: float):
    def expire(signum, frame):
        raise CaseTimedOut(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("main, argv, code, crash", MATRIX)
def test_bad_request_is_one_error_line(main, argv, code, crash, tmp_path, capsys, monkeypatch):
    import repro.parallel.runner as runner
    from repro.parallel.worker import CRASH_ENV_VAR

    for name, text in INPUTS.items():
        if "{" + name + "}" not in argv:
            continue
        path = tmp_path / name
        path.write_text(text)
        argv = [arg.replace("{" + name + "}", str(path)) for arg in argv]
    if crash is not None:
        monkeypatch.setenv(CRASH_ENV_VAR, crash)
        monkeypatch.setattr(runner.time, "sleep", lambda seconds: None)
    try:
        with time_limit(CASE_TIMEOUT):
            rc = main(argv)
    except SystemExit as exc:  # argparse's own refusal
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == code, err
    assert "Traceback" not in err
    last = err.rstrip("\n").splitlines()[-1]
    assert re.match(r"(sp2-[a-z]+( [a-z-]+)?: )?error: ", last), last
    assert len(last) <= MAX_ERROR_LINE, (len(last), last[:MAX_ERROR_LINE])


@pytest.mark.parametrize(
    "main, argv, outputs",
    [
        pytest.param(trace, ["record", *TINY, "--out", "{out}/t.jsonl", "--chrome", "{out}/c.json"],
                     ["t.jsonl", "c.json"], id="trace-record"),
        pytest.param(trace, ["export", "{trace}", "--out", "{out}/t.json"], ["t.json"],
                     id="trace-export"),
        pytest.param(trace, ["export", "{trace}", "--format", "jsonl", "--out", "{out}/t.jsonl"],
                     ["t.jsonl"], id="trace-export-jsonl"),
        pytest.param(fleet, ["run", "--days", "2", "--out", "{out}/run.json"], ["run.json"],
                     id="fleet-run"),
    ],
)
def test_output_into_a_missing_directory_is_written(
    main, argv, outputs, recorded_trace, tmp_path, capsys
):
    """Every output path's directory is created, as ``sp2-study --json``
    creates its own (this was a FileNotFoundError traceback)."""
    out = tmp_path / "missing" / "dir"
    argv = [arg.replace("{out}", str(out)).replace("{trace}", recorded_trace) for arg in argv]
    assert main(argv) == 0, capsys.readouterr().err
    for name in outputs:
        assert (out / name).stat().st_size > 0, name


def test_value_error_inside_a_run_is_not_a_usage_error(monkeypatch):
    """A fault inside a run (a counter running backwards, say) must stay
    a traceback: only the request-reading code maps ValueError to 2."""
    import repro.cli_common

    def faulty_run(*args, **kwargs):
        raise ValueError("counter ran backwards")

    monkeypatch.setattr(repro.cli_common, "run_study", faulty_run)
    with pytest.raises(ValueError, match="counter ran backwards"):
        study(TINY)


# ----------------------------------------------------------------------
# A closed stdout is not a failure
# ----------------------------------------------------------------------
SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
FLEET_DOC = pathlib.Path(__file__).resolve().parents[1] / "golden" / "data" / "fleet_demo2.json"


@pytest.fixture(params=["buffered", "unbuffered"])
def closed_stdout_run(request):
    """Run ``module.main`` the way its console script does, writing to a
    pipe whose read end is closed before the child starts.  A buffered
    stdout fails when flushed, an unbuffered one at the first write."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONUNBUFFERED", None)
    if request.param == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"

    def run(module: str, argv: list[str]) -> subprocess.CompletedProcess:
        read_end, write_end = os.pipe()
        os.close(read_end)
        script = f"import sys; from {module} import main; sys.exit(main())"
        try:
            return subprocess.run(
                [sys.executable, "-c", script, *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
            )
        finally:
            os.close(write_end)

    return run


@pytest.fixture(scope="module")
def recorded_trace(tmp_path_factory) -> str:
    out = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    assert repro.trace_cli.main(["record", *TINY, "--out", str(out)]) == 0
    return str(out)


@pytest.mark.parametrize(
    "module, argv",
    [
        pytest.param("repro.cli", ["--help"], id="sp2-study"),
        pytest.param("repro.cli", ["repeat", "--help"], id="sp2-study-repeat"),
        pytest.param("repro.ops_cli", ["--help"], id="sp2-ops"),
        pytest.param("repro.trace_cli", ["summary", "{trace}"], id="sp2-trace"),
        pytest.param("repro.fleet_cli", ["report", str(FLEET_DOC)], id="sp2-fleet"),
        pytest.param("repro.sweep_cli", ["axes"], id="sp2-sweep"),
    ],
)
def test_closed_stdout_exits_zero(module, argv, recorded_trace, closed_stdout_run):
    argv = [arg.replace("{trace}", recorded_trace) for arg in argv]
    proc = closed_stdout_run(module, argv)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_closed_stdout_during_a_campaign_exits_zero(closed_stdout_run):
    """Only the progress lines reach stderr when the report cannot be written."""
    proc = closed_stdout_run("repro.cli", [*TINY, "--figures"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert [line.split()[0] for line in lines] == ["Running", "Campaign"], proc.stderr
