"""Estimator primitives: t quantiles, CIs, KS, the shape classifier."""

import math

import numpy as np
import pytest

from repro.stats.estimators import (
    bootstrap_ci,
    classify_distribution,
    ks_statistic,
    mean_ci,
    quantile_ci,
    relative_standard_error,
    t_cdf,
    t_ppf,
)


class TestStudentT:
    @pytest.mark.parametrize(
        "p,df,expected",
        [
            # Textbook t-table values (two-sided 95% unless noted).
            (0.975, 1, 12.7062),
            (0.975, 2, 4.3027),
            (0.975, 5, 2.5706),
            (0.975, 10, 2.2281),
            (0.975, 30, 2.0423),
            (0.95, 5, 2.0150),
            (0.995, 100, 2.6259),
        ],
    )
    def test_ppf_matches_t_tables(self, p, df, expected):
        assert t_ppf(p, df) == pytest.approx(expected, abs=5e-4)

    def test_ppf_symmetry(self):
        assert t_ppf(0.25, 7) == pytest.approx(-t_ppf(0.75, 7))
        assert t_ppf(0.5, 3) == 0.0

    def test_cdf_inverts_ppf(self):
        for p in (0.6, 0.9, 0.975, 0.999):
            for df in (1, 4, 29):
                assert t_cdf(t_ppf(p, df), df) == pytest.approx(p, abs=1e-9)

    def test_large_df_approaches_normal(self):
        # z_{0.975} = 1.95996...; t with 1e6 dof is the same to 4 places.
        assert t_ppf(0.975, 1_000_000) == pytest.approx(1.9600, abs=1e-3)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            t_ppf(0.0, 5)
        with pytest.raises(ValueError):
            t_ppf(1.0, 5)
        with pytest.raises(ValueError):
            t_ppf(0.9, 0)
        with pytest.raises(ValueError):
            t_cdf(1.0, -2)

    def test_memoized_quantile_is_the_bisection_bitwise(self):
        for p, df in ((0.975, 9), (0.025, 9), (0.9, 29)):
            t_ppf.cache_clear()
            fresh = t_ppf.__wrapped__(p, df)  # the bisection, not the cache
            first = t_ppf(p, df)
            hits = t_ppf.cache_info().hits
            again = t_ppf(p, df)
            assert t_ppf.cache_info().hits == hits + 1
            assert first.hex() == fresh.hex() == again.hex()

    def test_memoized_quantile_still_refuses_bad_arguments(self):
        t_ppf(0.975, 5)
        for _ in range(2):  # a refusal is never cached as an answer
            with pytest.raises(ValueError, match="p must be"):
                t_ppf(1.0, 5)
            with pytest.raises(ValueError, match="df must be"):
                t_ppf(0.975, 0)
            with pytest.raises(ValueError, match="df must be"):
                t_ppf(0.975, -1.5)


class TestMeanCI:
    def test_known_interval(self):
        # n=4, mean 2.5, s=sqrt(5/3); hw = t(0.975,3)*s/2 = 2.0555...
        est = mean_ci([1.0, 2.0, 3.0, 4.0])
        s = math.sqrt(5.0 / 3.0)
        hw = 3.1824 * s / 2.0
        assert est.mean == pytest.approx(2.5)
        assert est.halfwidth == pytest.approx(hw, abs=1e-3)
        assert est.ci_low == pytest.approx(2.5 - hw, abs=1e-3)
        assert est.n == 4

    def test_single_observation_degenerates(self):
        est = mean_ci([3.7])
        assert (est.mean, est.ci_low, est.ci_high) == (3.7, 3.7, 3.7)
        assert est.rse == float("inf")  # one repeat never reads converged

    def test_order_independent(self):
        a = mean_ci([5.0, 1.0, 3.0, 2.0])
        b = mean_ci([1.0, 2.0, 3.0, 5.0])
        assert a == b

    def test_wider_confidence_is_wider(self):
        x = [1.0, 2.0, 4.0, 8.0, 9.0]
        assert mean_ci(x, 0.99).halfwidth > mean_ci(x, 0.95).halfwidth

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_ci([])
        with pytest.raises(ValueError):
            mean_ci([1.0, 2.0], confidence=1.0)


class TestBootstrap:
    def test_deterministic_for_seed(self):
        x = np.random.default_rng(3).normal(10.0, 2.0, 40)
        assert bootstrap_ci(x, seed=17) == bootstrap_ci(x, seed=17)

    def test_different_seeds_differ(self):
        x = np.random.default_rng(3).normal(10.0, 2.0, 40)
        assert bootstrap_ci(x, seed=1) != bootstrap_ci(x, seed=2)

    def test_interval_brackets_the_mean_statistic(self):
        x = np.random.default_rng(0).normal(5.0, 1.0, 100)
        est = bootstrap_ci(x)
        assert est.ci_low <= est.mean <= est.ci_high

    def test_quantile_ci_brackets_quantile(self):
        x = np.random.default_rng(1).exponential(2.0, 200)
        est = quantile_ci(x, 0.9)
        assert est.ci_low <= float(np.quantile(x, 0.9)) <= est.ci_high
        with pytest.raises(ValueError):
            quantile_ci(x, 1.5)


class TestRSE:
    def test_known_value(self):
        # mean 2, s=1, n=4 -> (1/2)/2 = 0.25
        assert relative_standard_error([1.0, 1.0, 3.0, 3.0]) == pytest.approx(
            math.sqrt(4.0 / 3.0) / 2.0 / 2.0
        )

    def test_undefined_cases(self):
        assert relative_standard_error([5.0]) == float("inf")
        assert relative_standard_error([-1.0, 1.0]) == float("inf")  # mean 0
        assert relative_standard_error([0.0, 0.0, 0.0]) == 0.0


class TestKS:
    def test_identical_samples_are_zero(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert ks_statistic(x, x) == 0.0

    def test_disjoint_samples_are_one(self):
        assert ks_statistic([1.0, 2.0], [10.0, 11.0]) == 1.0

    def test_known_half(self):
        # {1,2} vs {2,3}: sup|F_a - F_b| = 1/2 at x in [1,2).
        assert ks_statistic([1.0, 2.0], [2.0, 3.0]) == pytest.approx(0.5)

    def test_symmetry_and_empty(self):
        a, b = [1.0, 5.0, 9.0], [2.0, 3.0]
        assert ks_statistic(a, b) == ks_statistic(b, a)
        with pytest.raises(ValueError):
            ks_statistic([], b)


class TestClassifier:
    def test_normal_reads_unimodal(self):
        x = np.random.default_rng(0).normal(10.0, 1.0, 60)
        shape = classify_distribution(x)
        assert shape.label == "unimodal"
        assert shape.modes == 1
        assert shape.split is None

    def test_separated_lobes_read_multimodal(self):
        rng = np.random.default_rng(1)
        x = np.concatenate(
            [rng.normal(0.0, 0.3, 30), rng.normal(10.0, 0.3, 30)]
        )
        shape = classify_distribution(x)
        assert shape.label == "multimodal"
        assert shape.modes == 2
        assert 2.0 < shape.split < 8.0
        assert shape.aic_gain > 0.0

    def test_small_sample_is_insufficient(self):
        shape = classify_distribution([1.0, 2.0, 3.0])
        assert shape.label == "insufficient"

    def test_mildly_skewed_tail_stays_unimodal(self):
        # Gentle lognormal skew is one lobe; the hard-split AIC only
        # flips to multimodal once the tail detaches into its own mass.
        x = np.random.default_rng(0).lognormal(0.0, 0.2, 80)
        assert classify_distribution(x).label == "unimodal"
