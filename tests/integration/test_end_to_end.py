"""End-to-end integration: campaign → analysis → paper shapes."""

import numpy as np
import pytest

from repro.analysis.figures import figure1, figure2, figure3, figure4, figure5
from repro.analysis.report import headline_report
from repro.analysis.tables import table2, table3, table4
from repro.hpm.jobreport import parse_job_report, render_job_report
from tests.hpm.interval_totals import interval_totals


class TestFullPipeline:
    def test_all_artifacts_generate(self, month_dataset):
        """Every table and figure builds from one campaign."""
        for gen in (table2, table3, table4):
            assert gen(month_dataset).render()
        for gen in (figure1, figure2, figure3, figure4, figure5):
            fig = gen(month_dataset)
            assert fig.render()
            assert fig.csv()

    def test_job_reports_roundtrip_from_campaign(self, month_dataset):
        recs = month_dataset.accounting.filtered()[:10]
        for rec in recs:
            parsed = parse_job_report(render_job_report(rec))
            assert parsed.total_mflops == pytest.approx(rec.total_mflops)

    def test_paging_cliff_shows_in_batch_data(self, month_dataset):
        """§6: >64-node jobs collapse; their records show the system-mode
        signature."""
        recs = month_dataset.accounting.filtered()
        wide_paging = [
            r for r in recs if r.nodes_requested > 64 and r.app_name == "wide_paging"
        ]
        if not wide_paging:
            pytest.skip("no wide paging jobs completed this month")
        rates = np.array([r.mflops_per_node for r in wide_paging])
        ratios = np.array([r.system_user_fxu_ratio for r in wide_paging])
        narrow = [r.mflops_per_node for r in recs if r.nodes_requested <= 64]
        # The population collapses relative to the narrow jobs, and the
        # majority shows the system-mode signature.
        assert rates.mean() < 0.5 * np.mean(narrow)
        assert (ratios > 0.5).mean() >= 0.5
        assert ratios.max() > 1.0

    def test_sampler_and_epilogue_agree_on_flops(self, month_dataset):
        """Two independent measurement paths (15-min samples vs job
        prologue/epilogue) must agree on the campaign's total flops to
        within the still-running-jobs slack."""
        ivs = month_dataset.collector.intervals()

        def flops(d):
            return (
                d.get("user.fpu0_fp_add", 0)
                + d.get("user.fpu1_fp_add", 0)
                + d.get("user.fpu0_fp_mul", 0)
                + d.get("user.fpu1_fp_mul", 0)
                + 2 * d.get("user.fpu0_fp_muladd", 0)
                + 2 * d.get("user.fpu1_fp_muladd", 0)
            )

        sampled = sum(flops(interval_totals(iv)) for iv in ivs)
        from repro.pbs.job import JobRecord

        accounted = sum(
            JobRecord.flops_from_deltas(r.summed_deltas())
            for r in month_dataset.accounting.records
        )
        assert accounted <= sampled * 1.001
        assert accounted >= 0.75 * sampled

    def test_headline_report_complete(self, month_dataset):
        report = headline_report(month_dataset)
        assert len(report) >= 14


class TestCrossChecks:
    def test_fig2_totals_match_accounting(self, month_dataset):
        fig = figure2(month_dataset)
        total_from_fig = fig.series["y"].sum()
        total_from_log = sum(
            r.walltime_seconds for r in month_dataset.accounting.filtered()
        )
        assert total_from_fig == pytest.approx(total_from_log)

    def test_fig4_is_16_node_subset_of_fig3(self, month_dataset):
        f3 = figure3(month_dataset)
        f4 = figure4(month_dataset)
        n16 = (f3.series["x"] == 16).sum()
        assert len(f4.series["job_mflops"]) == n16

    def test_fig1_mean_matches_headline(self, month_dataset):
        fig = figure1(month_dataset)
        headline = next(
            h
            for h in headline_report(month_dataset)
            if h.claim == "average daily system performance"
        )
        assert fig.series["daily_gflops"].mean() == pytest.approx(
            headline.measured_value
        )

    def test_fig5_days_match_campaign_length(self, month_dataset):
        fig = figure5(month_dataset)
        assert len(fig.series["x"]) == month_dataset.config.n_days
