"""The sp2-ops live-operations CLI."""

import pytest

from repro.ops_cli import build_parser, main

SMALL = ["--days", "2", "--nodes", "32", "--users", "8", "--seed", "5"]


class TestParser:
    def test_subcommands_registered(self):
        p = build_parser()
        for argv in (
            ["alerts"],
            ["tail", "--limit", "5"],
            ["query", "--metric", "gflops.system"],
            ["jobs", "--top", "3"],
        ):
            args = p.parse_args(argv + SMALL)
            assert args.days == 2 and args.seed == 5

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestAlerts:
    def test_alerts_run(self, capsys):
        rc = main(["alerts"] + SMALL)
        assert rc == 0
        out = capsys.readouterr().out
        assert "intervals watched" in out

    def test_acceptance_invocation_detects_paging(self, capsys):
        """The CI smoke invocation: a 3-day seed-1 campaign includes a
        high-paging day and the online rule must catch it."""
        rc = main(["alerts", "--days", "3", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "paging" in out
        assert "likely paging" in out

    def test_sharded_run_lists_the_replayed_alerts(self, capsys):
        """Shard workers run with no bus; the merge's replay is the
        sharded campaign's telemetry, and the verb lists its alerts."""
        rc = main(["alerts", "--days", "3", "--seed", "1", "--shard-days", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        shown = [line for line in out.splitlines() if line.startswith("d0")]
        assert shown and any("likely paging" in line for line in shown)
        assert f"-- {len(shown)} alert(s) shown" in out
        assert "288 intervals watched" in out

    def test_rule_filter(self, capsys):
        rc = main(["alerts", "--rule", "paging"] + SMALL)
        assert rc == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            if line.startswith("d") and "paging" not in line:
                pytest.fail(f"non-paging alert leaked through filter: {line}")

    def test_fault_rule_filter_on_faulted_campaign(self, capsys):
        rc = main(["alerts", "--rule", "fault", "--fault-profile", "pathological"] + SMALL)
        assert rc == 0
        out = capsys.readouterr().out
        shown = [line for line in out.splitlines() if line.startswith("d")]
        assert shown, "pathological profile fired no fault alerts"
        assert all("fault" in line for line in shown)

    def test_zero_sample_campaign_exits_nonzero(self, capsys):
        """A campaign that measured nothing must not read as healthy."""
        from repro.core.study import StudyConfig, StudyDataset
        from repro.hpm.collector import SampleSeries
        from repro.ops_cli import cmd_alerts
        from repro.pbs.accounting import AccountingLog

        empty = StudyDataset(
            config=StudyConfig(n_days=1, n_nodes=16, n_users=4),
            trace=None,
            collector=SampleSeries(),
            accounting=AccountingLog(),
        )
        args = build_parser().parse_args(["alerts"] + SMALL)
        rc = cmd_alerts(empty, args)
        assert rc == 1
        assert "zero collector samples" in capsys.readouterr().err


class TestTail:
    def test_tail_renders_feed(self, capsys):
        rc = main(["tail", "--limit", "10"] + SMALL)
        assert rc == 0
        out = capsys.readouterr().out
        assert "GFLOPS" in out and "SYS/USR" in out
        assert "10 of" in out

    def test_tail_all_intervals(self, capsys):
        rc = main(["tail", "--limit", "0"] + SMALL)
        assert rc == 0
        # 2 days of 15-minute samples = 192 intervals.
        assert "192 of 192 intervals" in capsys.readouterr().out


class TestQuery:
    def test_query_known_metric(self, capsys):
        rc = main(["query", "--metric", "tlb.miss_rate"] + SMALL)
        assert rc == 0
        out = capsys.readouterr().out
        assert "quantiles" in out and "ewma" in out

    def test_query_with_window_and_plot(self, capsys):
        rc = main(
            ["query", "--metric", "gflops.system", "--day-from", "0", "--day-to", "0", "--plot"]
            + SMALL
        )
        assert rc == 0
        out = capsys.readouterr().out
        # One day of 15-minute intervals, minus the boundary interval
        # ending exactly at midnight (half-open window).
        assert "95 in window" in out

    def test_query_unknown_metric_fails(self, capsys):
        rc = main(["query", "--metric", "bogus"] + SMALL)
        assert rc == 2
        assert "unknown metric" in capsys.readouterr().err


class TestJobs:
    def test_jobs_table(self, capsys):
        rc = main(["jobs", "--top", "5"] + SMALL)
        assert rc == 0
        out = capsys.readouterr().out
        assert "MFLOPS" in out
        assert "finished jobs shown" in out

    def test_jobs_user_filter(self, capsys):
        rc = main(["jobs", "--user", "1", "--top", "0"] + SMALL)
        assert rc == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            cols = line.split()
            if cols and cols[0].isdigit():
                assert cols[2] == "1"


class TestReport:
    def test_report_renders_performance_page(self, capsys):
        rc = main(["report", "--job", "1", "--trace"] + SMALL)
        assert rc == 0
        out = capsys.readouterr().out
        assert "job 1 performance report" in out
        assert "throughput :" in out
        assert "critical   :" in out  # --trace gives real attribution

    def test_report_untraced_notes_missing_attribution(self, capsys):
        rc = main(["report", "--job", "1"] + SMALL)
        assert rc == 0
        assert "untraced campaign" in capsys.readouterr().out

    def test_report_unknown_job_is_usage_error(self, capsys):
        rc = main(["report", "--job", "999"] + SMALL)
        assert rc == 2
        err = capsys.readouterr().err
        assert "no finished job 999" in err
        assert "finished job ids" in err  # the hint names the valid range

    def test_report_trace_conflicts_with_workers(self, capsys):
        rc = main(["report", "--job", "1", "--trace", "--workers", "2"] + SMALL)
        assert rc == 2
        assert "--trace" in capsys.readouterr().err


class TestServeAndAsk:
    """One live service round trip through the real CLI entry points."""

    @pytest.fixture()
    def service(self, tmp_path):
        import threading

        port_file = tmp_path / "port"
        rc_box = {}

        def run_service():
            rc_box["rc"] = main(
                ["serve", "--name", "camp", "--port-file", str(port_file)] + SMALL
            )

        thread = threading.Thread(target=run_service, daemon=True)
        thread.start()
        deadline = 30.0
        import time

        start = time.monotonic()
        while not port_file.exists():
            if time.monotonic() - start > deadline:
                pytest.fail("service never wrote its port file")
            time.sleep(0.05)
        # The port file appears at bind time, before the campaign has
        # finished ingesting; wait until it reads as complete so the
        # test body sees the full job table.
        import asyncio

        from repro.ops import OpsClient

        async def wait_resident():
            port = int(port_file.read_text().strip())
            while time.monotonic() - start < deadline:
                async with await OpsClient.connect("127.0.0.1", port) as client:
                    cat = await client.request("catalog")
                entries = cat["campaigns"]
                if entries and entries[0]["status"] == "complete":
                    return
                await asyncio.sleep(0.05)
            pytest.fail("campaign never completed ingest")

        asyncio.run(wait_resident())
        yield port_file
        # Always stop the service, even if the test body failed.
        main(["ask", "shutdown", "--port-file", str(port_file)])
        thread.join(timeout=10.0)
        assert rc_box.get("rc") == 0  # clean shutdown path

    def test_ask_round_trips(self, service, capsys):
        import json

        port = ["--port-file", str(service)]
        assert main(["ask", "ping"] + port) == 0
        ping = json.loads(capsys.readouterr().out)
        assert ping["campaigns"] == 1

        assert main(["ask", "query", "--campaign", "camp", "--metric",
                     "gflops.system"] + port) == 0
        query = json.loads(capsys.readouterr().out)
        assert query["count"] > 0 and query["dropped"] == 0

        assert main(["ask", "report", "--campaign", "camp", "--job", "1"] + port) == 0
        assert "job 1 performance report" in capsys.readouterr().out

    def test_ask_protocol_errors_map_to_exit_codes(self, service, capsys):
        port = ["--port-file", str(service)]
        # Usage errors (the request was wrong) exit 2.
        assert main(["ask", "query", "--campaign", "ghost", "--metric",
                     "gflops.system"] + port) == 2
        assert "unknown-campaign" in capsys.readouterr().err
        # Operational errors (nothing listening) exit 1.
        assert main(["ask", "ping", "--port", "1"]) == 1
        assert "error" in capsys.readouterr().err

    def test_ask_without_port_is_usage_error(self, capsys):
        rc = main(["ask", "ping"])
        assert rc == 2
        assert "--port" in capsys.readouterr().err
