"""Headline report: structure and calibration bands."""

import pytest

from repro.analysis.report import (
    PAPER_CLAIMS,
    Headline,
    headline_report,
    paper_comparison,
)


class TestHeadline:
    def test_ratio(self):
        h = Headline("x", 2.0, 3.0, "Gflops")
        assert h.ratio == pytest.approx(1.5)

    def test_zero_paper_value(self):
        assert Headline("x", 0.0, 0.0, "u").ratio == 1.0
        assert Headline("x", 0.0, 1.0, "u").ratio == float("inf")

    def test_line_format(self):
        line = Headline("average rate", 1.3, 1.6, "Gflops").line()
        assert "paper" in line and "measured" in line and "x1.23" in line


class TestReport:
    def test_all_headlines_present(self, month_dataset):
        claims = {h.claim for h in headline_report(month_dataset)}
        for needle in (
            "average daily system performance",
            "maximum 15-minute rate",
            "fma fraction of workload flops",
            "FPU0:FPU1 instruction ratio",
            "most popular node count",
        ):
            assert any(needle in c for c in claims), needle

    def test_headlines_within_reproduction_band(self, month_dataset):
        """Every headline within 3x of the paper — the 'shape holds'
        criterion; most land within ±30%."""
        report = headline_report(month_dataset)
        for h in report:
            assert 1 / 3 <= h.ratio <= 3.0, h.claim
        close = sum(1 for h in report if 0.7 <= h.ratio <= 1.4)
        assert close >= len(report) // 2

    def test_efficiency_is_single_digit_percent(self, month_dataset):
        h = next(
            h for h in headline_report(month_dataset) if "efficiency" in h.claim
        )
        assert 0.01 <= h.measured_value <= 0.09

    def test_paper_comparison_renders(self, month_dataset):
        text = paper_comparison(month_dataset)
        assert "Paper vs measured" in text
        assert "Gflops" in text


class TestPaperClaims:
    """headline_report measures every claim of PAPER_CLAIMS, in its
    order, and takes each paper value and unit from it."""

    def test_claims_match_headline_report_exactly(self, month_dataset):
        report = headline_report(month_dataset)
        assert [h.claim for h in report] == list(PAPER_CLAIMS)
        for h in report:
            paper, unit = PAPER_CLAIMS[h.claim]
            assert h.paper_value == paper, h.claim
            assert h.unit == unit, h.claim
