"""Statistics helpers: moving averages, summaries, weighted means."""

import numpy as np
import pytest

from repro.util.stats import moving_average, summary, time_weighted_mean


class TestMovingAverage:
    def test_constant_series_is_unchanged(self):
        x = np.full(20, 3.5)
        np.testing.assert_allclose(moving_average(x, 5), x)

    def test_warmup_ramp_averages_prefix(self):
        out = moving_average([1.0, 2.0, 3.0, 4.0], window=3)
        np.testing.assert_allclose(out, [1.0, 1.5, 2.0, 3.0])

    def test_window_longer_than_series(self):
        out = moving_average([2.0, 4.0], window=10)
        np.testing.assert_allclose(out, [2.0, 3.0])

    def test_empty_series(self):
        assert moving_average([], 3).size == 0

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            moving_average([1.0], 0)

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError):
            moving_average(np.zeros((3, 3)), 2)

    def test_matches_naive_implementation(self):
        rng = np.random.default_rng(0)
        x = rng.random(100)
        w = 7
        out = moving_average(x, w)
        for i in range(len(x)):
            lo = max(0, i - w + 1)
            assert out[i] == pytest.approx(x[lo : i + 1].mean())


class TestSummary:
    def test_basic_moments(self):
        s = summary([1.0, 2.0, 3.0, 4.0])
        assert s.mean == pytest.approx(2.5)
        assert s.std == pytest.approx(np.std([1, 2, 3, 4]))
        assert (s.min, s.max, s.n) == (1.0, 4.0, 4)

    def test_empty_sample(self):
        s = summary([])
        assert s.n == 0 and s.mean == 0.0 and s.std == 0.0


class TestTimeWeightedMean:
    def test_equal_weights_is_plain_mean(self):
        assert time_weighted_mean([1.0, 3.0], [5.0, 5.0]) == pytest.approx(2.0)

    def test_weighting(self):
        # A long slow job dominates a short fast one (the §6 metric).
        assert time_weighted_mean([10.0, 40.0], [9.0, 1.0]) == pytest.approx(13.0)

    def test_zero_total_weight(self):
        assert time_weighted_mean([5.0], [0.0]) == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            time_weighted_mean([1.0, 2.0], [1.0])

    def test_negative_weight_raises(self):
        with pytest.raises(ValueError):
            time_weighted_mean([1.0], [-1.0])

