"""The sp2-study command-line interface."""


from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.days == 30 and args.nodes == 144 and args.seed == 0

    def test_flags(self):
        args = build_parser().parse_args(
            ["--days", "5", "--seed", "3", "--tables", "--figures"]
        )
        assert args.days == 5 and args.seed == 3
        assert args.tables and args.figures


class TestMain:
    def test_small_run_prints_headlines(self, capsys):
        rc = main(["--days", "2", "--nodes", "16", "--users", "4", "--seed", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Paper vs measured" in out
        assert "average daily system performance" in out

    def test_tables_flag_degrades_gracefully(self, capsys):
        """A 2-day toy campaign has no >2 Gflops days on 16 nodes; the
        CLI must say so rather than crash."""
        rc = main(["--days", "2", "--nodes", "16", "--users", "4", "--tables"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_csv_dump(self, tmp_path, capsys):
        rc = main(
            ["--days", "2", "--nodes", "16", "--users", "4", "--csv-dir", str(tmp_path)]
        )
        assert rc == 0
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == [f"figure{i}.csv" for i in range(1, 6)]
        text = (tmp_path / "figure1.csv").read_text()
        assert text.splitlines()[0].startswith("daily_gflops")


class TestJsonExport:
    def test_json_summary_written(self, tmp_path, capsys):
        out = tmp_path / "summary.json"
        rc = main(
            ["--days", "2", "--nodes", "16", "--users", "4", "--json", str(out)]
        )
        assert rc == 0
        import json

        data = json.loads(out.read_text())
        assert data["config"]["n_nodes"] == 16
        assert "headlines" in data

    def test_json_includes_telemetry_alert_counts(self, tmp_path, capsys):
        out = tmp_path / "summary.json"
        rc = main(
            ["--days", "2", "--nodes", "16", "--users", "4", "--json", str(out)]
        )
        assert rc == 0
        import json

        tele = json.loads(out.read_text())["telemetry"]
        assert tele is not None
        assert tele["samples_seen"] == 2 * 96 + 1
        for key in ("alerts_total", "alerts_by_rule", "alerts_suppressed"):
            assert key in tele


class TestEmptyCampaignExit:
    def test_zero_finished_jobs_exits_nonzero(self, capsys, monkeypatch):
        """A silently-empty campaign must not look like a success."""
        import dataclasses

        import repro.cli_common
        from repro.pbs.accounting import AccountingLog

        real = repro.cli_common.run_study

        def empty_run(*args, **kwargs):
            dataset = real(*args, **kwargs)
            return dataclasses.replace(dataset, accounting=AccountingLog())

        monkeypatch.setattr(repro.cli_common, "run_study", empty_run)
        rc = main(["--days", "2", "--nodes", "16", "--users", "4"])
        assert rc == 1
        assert "zero jobs" in capsys.readouterr().err
