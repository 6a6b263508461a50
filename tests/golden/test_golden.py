"""Golden regression tests for the paper-facing artifacts.

Everything here is derived from the *default-seed* 30-day campaign at
the paper's scale (144 nodes, 60 users): Tables 1–4, the headline
report, and the ``--json`` campaign summary.  A performance refactor —
sharding, vectorization, caching — must leave every byte unchanged; an
intentional model change regenerates the files with ``--update-golden``
(see tests/golden/conftest.py).
"""

from __future__ import annotations

from repro.analysis import paper_comparison, table1, table2, table3, table4
from repro.analysis.export import dataset_to_json
from repro.analysis.opsreport import campaign_ops_digest
from repro.analysis.report import headline_report


class TestTables:
    def test_table1(self, golden):
        golden.check("table1.txt", table1().render() + "\n")

    def test_table2(self, default_month, golden):
        golden.check("table2.txt", table2(default_month).render() + "\n")

    def test_table3(self, default_month, golden):
        golden.check("table3.txt", table3(default_month).render() + "\n")

    def test_table4(self, default_month, golden):
        golden.check("table4.txt", table4(default_month).render() + "\n")


class TestHeadlines:
    def test_headline_report_text(self, default_month, golden):
        golden.check("headlines.txt", paper_comparison(default_month) + "\n")

    def test_paper_scale_bands(self, default_month):
        """The abstract's claims: ≈1.3 Gflops sustained ≈ 3% of peak.

        Bands, not exact matches — the golden files pin the bytes; this
        pins the *physics* so a regenerated golden can't silently drift
        out of the paper's regime.
        """
        by_claim = {h.claim: h for h in headline_report(default_month)}
        gflops = by_claim["average daily system performance"].measured_value
        assert 0.9 <= gflops <= 1.6
        eff = by_claim["system efficiency (of aggregate peak)"].measured_value
        assert 0.02 <= eff <= 0.045
        assert by_claim["most popular node count"].measured_value == 16
        assert 1.3 <= by_claim["FPU0:FPU1 instruction ratio"].measured_value <= 2.2

    def test_json_summary(self, default_month, golden):
        golden.check("summary.json", dataset_to_json(default_month))


class TestOpsDigest:
    def test_campaign_digest(self, default_month, golden):
        golden.check("ops_digest.txt", campaign_ops_digest(default_month) + "\n")


class TestFleet:
    def test_fleet_json_block(self, golden):
        """The ``sp2-fleet run --json`` document for the demo2 preset at
        the default seed — pins the fleet routing, the per-center
        campaigns and the analysis reduction in one artifact."""
        import json

        from repro.fleet import fleet_summary, preset, run_fleet

        spec = preset("demo2")
        fleet = run_fleet(spec)
        document = {"spec": spec.to_dict(), **fleet_summary(fleet)}
        golden.check(
            "fleet_demo2.json", json.dumps(document, indent=2, sort_keys=True) + "\n"
        )


class TestRepeat:
    def test_repeat_json(self, tmp_path, golden):
        """``sp2-study repeat --days 2 --nodes 16 --users 6 --seeds 0,1,2
        --json``: pins the config block and every per-seed sample of a
        fixed-seed repeat."""
        from repro.stats.cli import repeat_main

        out = tmp_path / "repeat.json"
        argv = ["--days", "2", "--nodes", "16", "--users", "6", "--seeds", "0,1,2"]
        assert repeat_main([*argv, "--json", str(out)]) == 0
        golden.check("repeat_2d_16n.json", out.read_text())


#: Counters whose per-job PHPM reductions the job-report golden pins.
REDUCED_COUNTERS = ("user.fpu0_fp_add", "user.fxu0", "system.fxu0", "user.dcache_reload")


class TestJobReports:
    def test_job_reports(self, default_month, golden):
        """The epilogue report text and the PHPM view of a fixed set of
        ``default_month`` jobs: the first to finish, the widest, and
        every 50th by job id.  Floats are written as ``repr``, so a
        reduction that moves by one bit shows."""
        from repro.hpm.jobreport import render_job_report
        from repro.hpm.phpm import ParallelJobReport

        records = default_month.accounting.records
        by_id = sorted(records, key=lambda r: r.job_id)
        widest = max(by_id, key=lambda r: len(r.node_ids))
        chosen = {r.job_id: r for r in (records[0], widest, *by_id[::50])}
        lines = []
        for job_id in sorted(chosen):
            record = chosen[job_id]
            phpm = ParallelJobReport(record)
            lines.append(render_job_report(record))
            lines.append(f"flop_imbalance {phpm.flop_imbalance()!r}")
            for counter in REDUCED_COUNTERS:
                r = phpm.reduce(counter)
                lines.append(
                    f"reduce {counter} {r.total!r} {r.mean!r} {r.minimum!r} {r.maximum!r}"
                )
            for d in phpm.diagnose_nodes():
                lines.append(
                    f"node {d.node_id} {d.flops!r} {d.flop_share!r} "
                    f"{d.system_user_fxu_ratio!r}"
                )
        golden.check("job_reports.txt", "\n".join(lines) + "\n")


class TestTelemetrySummaries:
    def test_store_aggregates(self, default_month, golden):
        """Every catalog metric's campaign-wide store aggregates: the live
        store, and a replay of the same campaign into 256-point rings.
        Those rings wrap about 11 times over the month's 2,880
        intervals, so aggregates that must outlive eviction are pinned
        too.  The replayed samples come from the same campaign run
        keeping them (the fixture's keeps only its intervals)."""
        from repro.core.study import WorkloadStudy
        from repro.telemetry.service import METRIC_CATALOG, TelemetryService, replay_events
        from repro.telemetry.store import MetricStore

        kept = WorkloadStudy(default_month.config, keep_samples=True).run()
        assert kept.collector.intervals() == default_month.collector.intervals()
        replayed = TelemetryService(store=MetricStore(capacity=256))
        for topic, event in replay_events(kept.collector.samples, kept.accounting.records):
            replayed.bus.publish(topic, event)
        del kept
        lines = ["# metric count dropped last ewma min max p50 p90 p99"]
        for label, store in (
            ("live", default_month.telemetry.store),
            ("replay capacity=256", replayed.store),
        ):
            lines.append(f"[{label}]")
            for name in METRIC_CATALOG:
                s = store.summary(name)
                q = s.quantiles
                fields = (s.count, s.dropped, s.last, s.ewma, s.min, s.max,
                          q[0.5], q[0.9], q[0.99])
                lines.append(" ".join([name, *map(repr, fields)]))
        golden.check("telemetry_summaries.txt", "\n".join(lines) + "\n")


def _flag_lines(parser, lines: list[str]) -> None:
    """One line per non-help action of ``parser``, then each subcommand's
    parser in turn: option strings, default, choices, ``required`` and
    the action kind.  Positionals keep their order; options are sorted,
    since the order ``--help`` lists them in is not the surface.  Help
    text, ``type`` and ``dest`` are not pinned."""
    import argparse
    import pathlib

    lines.append(f"[{parser.prog}]")
    subparsers = []
    for action in sorted(parser._actions, key=lambda a: (bool(a.option_strings), a.option_strings)):
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            subparsers.extend(action.choices.values())
        default = action.default
        if isinstance(default, pathlib.PurePath):
            default = f"path:{default}"
        choices = None if action.choices is None else list(action.choices)
        kind = type(action).__name__.lstrip("_").removesuffix("Action")
        names = ",".join(action.option_strings) or "(positional)"
        lines.append(
            f"  {names} default={default!r} choices={choices!r} "
            f"required={action.required} kind={kind}"
        )
    for sub in subparsers:
        _flag_lines(sub, lines)


class TestCliFlags:
    def test_flag_surface(self, golden):
        """Every sp2-* parser's flags, recorded before the CLIs shared one
        argument group: a refactor of the command lines must not add,
        drop or re-default a flag."""
        from repro import cli, fleet_cli, ops_cli, sweep_cli, trace_cli
        from repro.stats.cli import build_repeat_parser

        lines: list[str] = []
        for build in (
            cli.build_parser,
            build_repeat_parser,
            ops_cli.build_parser,
            trace_cli.build_parser,
            fleet_cli.build_parser,
            sweep_cli.build_parser,
        ):
            _flag_lines(build(), lines)
        golden.check("cli_flags.txt", "\n".join(lines) + "\n")
