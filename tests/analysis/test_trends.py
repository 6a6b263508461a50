"""Trend analysis module."""

import numpy as np
import pytest

from repro.analysis.trends import TrendLine, render_trend_report, trend_report
from repro.core.study import StudyConfig, run_study


class TestTrendLine:
    def test_obvious_trend_threshold(self):
        assert TrendLine("x", 0.6, +1).is_obvious_trend
        assert TrendLine("x", -0.55, -1).is_obvious_trend
        assert not TrendLine("x", 0.3, +1).is_obvious_trend

    def test_line_rendering(self):
        line = TrendLine("fma flop fraction", 0.21, +1).line()
        assert "expected +" in line and "+0.21" in line and "no obvious trend" in line


class TestTrendReport:
    def test_all_candidates_present(self, month_dataset):
        trends = trend_report(month_dataset)
        names = {t.predictor for t in trends}
        assert {
            "fma flop fraction",
            "cache miss ratio",
            "TLB miss ratio",
            "flops per memory instruction",
            "FPU0:FPU1 ratio",
            "system/user FXU ratio",
            "user cycle fraction",
        } == names

    def test_correlations_bounded(self, month_dataset):
        for t in trend_report(month_dataset):
            assert -1.0 <= t.correlation <= 1.0

    def test_no_strong_cpu_side_predictor(self, month_dataset):
        """§5's finding, tested loosely on one month (app-mix drift makes
        short-campaign correlations noisy; the benchmark harness asserts
        the strict version on the 60/270-day campaign): no CPU-side
        predictor explains daily performance strongly."""
        by = {t.predictor: t for t in trend_report(month_dataset)}
        for name in ("fma flop fraction", "cache miss ratio", "TLB miss ratio"):
            assert abs(by[name].correlation) < 0.75, name

    def test_too_few_days_rejected(self):
        tiny = run_study(StudyConfig(seed=2, n_days=1, n_nodes=16, n_users=4))
        with pytest.raises(ValueError, match="five active days"):
            trend_report(tiny)

    def test_render(self, month_dataset):
        text = render_trend_report(trend_report(month_dataset))
        assert "trend search" in text
        assert "22-counter" in text


class TestUserHistories:
    def test_histories_cover_active_users(self, month_dataset):
        from repro.analysis.trends import user_histories

        hist = user_histories(month_dataset)
        assert len(hist) >= 5  # a month of 60 users has regulars
        for h in hist:
            assert h.n_jobs >= 8
            assert h.mean_mflops_per_node > 0

    def test_no_user_improves_systematically(self, month_dataset):
        """§6's premise, per user: the population median improvement is
        ~zero (users keep resubmitting the same codes)."""
        import numpy as np

        from repro.analysis.trends import user_histories

        slopes = [h.improvement_per_job for h in user_histories(month_dataset)]
        assert abs(float(np.median(slopes))) < 0.05

    def test_min_jobs_filter(self, month_dataset):
        from repro.analysis.trends import user_histories

        few = user_histories(month_dataset, min_jobs=50)
        many = user_histories(month_dataset, min_jobs=2)
        assert len(few) <= len(many)
