"""The adaptive campaign driver, exercised with a fake measurement."""

import pytest

from repro.stats.repeater import Repeater
from repro.stats.stopping import RSERule


def noisy(seed: int) -> dict[str, float]:
    """Deterministic fake repeat: tight 'value', plus a flaky extra
    metric that only some seeds produce (a quiet-seed table cell)."""
    out = {"value": 10.0 + 0.01 * (seed % 3), "seed_echo": float(seed)}
    if seed % 2 == 0:
        out["sometimes"] = float(seed) * 2.0
    return out


class TestAdaptive:
    def test_converges_before_cutoff(self):
        r = Repeater(run_one=noisy, rules=[RSERule(0.01)], batch_size=4, max_repeats=40)
        result = r.run()
        assert result.stopped.rule == "rse"
        assert result.n < 40
        assert result.seeds == list(range(result.n))
        assert result.batch_sizes == [4] * (result.n // 4)

    def test_cutoff_always_fires(self):
        wild = lambda seed: {"value": float(2**seed)}  # noqa: E731 - never converges
        r = Repeater(run_one=wild, rules=[RSERule(1e-9)], batch_size=4, max_repeats=10)
        result = r.run()
        assert result.stopped.rule == "max-repeats"
        assert result.n == 10
        # The last batch is clipped to the cutoff, not overrun.
        assert result.batch_sizes == [4, 4, 2]

    def test_no_rules_runs_to_cutoff(self):
        result = Repeater(run_one=noisy, batch_size=3, max_repeats=7).run()
        assert result.stopped.rule == "max-repeats"
        assert result.n == 7

    def test_partial_metrics_record_their_seeds(self):
        result = Repeater(run_one=noisy, batch_size=4, max_repeats=8).run()
        assert result.metric_seeds["value"] == result.seeds
        assert result.metric_seeds["sometimes"] == [0, 2, 4, 6]
        assert result.sample("sometimes") == [0.0, 4.0, 8.0, 12.0]

    def test_seed0_offsets_the_stream(self):
        result = Repeater(run_one=noisy, batch_size=2, max_repeats=4).run(seed0=100)
        assert result.seeds == [100, 101, 102, 103]

    def test_missing_target_metric_raises(self):
        r = Repeater(run_one=lambda s: {"other": 1.0}, max_repeats=4)
        with pytest.raises(KeyError, match="value"):
            r.run()

    def test_on_batch_narration(self):
        seen = []
        r = Repeater(
            run_one=noisy,
            batch_size=3,
            max_repeats=6,
            on_batch=lambda n, est: seen.append((n, est.n)),
        )
        r.run()
        assert seen == [(3, 3), (6, 6)]


class TestFixedSeeds:
    def test_runs_every_seed_no_adaptivity(self):
        r = Repeater(run_one=noisy, rules=[RSERule(10.0)], batch_size=2, max_repeats=3)
        # The rule would fire instantly and max_repeats is tiny; a fixed
        # list overrides both.
        result = r.run(seeds=[5, 1, 8, 2, 9])
        assert result.stopped.rule == "fixed-seeds"
        assert result.seeds == [5, 1, 8, 2, 9]
        assert result.sample("seed_echo") == [5.0, 1.0, 8.0, 2.0, 9.0]

    def test_batch_size_partitions_but_does_not_change_results(self):
        a = Repeater(run_one=noisy, batch_size=2).run(seeds=[0, 1, 2, 3, 4])
        b = Repeater(run_one=noisy, batch_size=5).run(seeds=[0, 1, 2, 3, 4])
        assert a.samples == b.samples
        assert a.metric_seeds == b.metric_seeds
        assert a.batch_sizes == [2, 2, 1]
        assert b.batch_sizes == [5]

    def test_rejects_empty_and_duplicate_lists(self):
        r = Repeater(run_one=noisy)
        with pytest.raises(ValueError):
            r.run(seeds=[])
        with pytest.raises(ValueError):
            r.run(seeds=[1, 2, 1])


class TestBatchRunner:
    def test_batch_runner_is_used(self):
        calls = []

        def runner(seeds):
            calls.append(list(seeds))
            return [noisy(s) for s in seeds]

        result = Repeater(
            run_one=noisy, batch_size=3, max_repeats=6, batch_runner=runner
        ).run()
        assert calls == [[0, 1, 2], [3, 4, 5]]
        assert result.n == 6

    def test_short_batch_runner_rejected(self):
        r = Repeater(run_one=noisy, batch_runner=lambda seeds: [], max_repeats=2)
        with pytest.raises(RuntimeError, match="batch runner"):
            r.run()

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Repeater(run_one=noisy, max_repeats=0)
        with pytest.raises(ValueError):
            Repeater(run_one=noisy, batch_size=0)


class TestResultAccessors:
    def test_estimate_and_trace(self):
        result = Repeater(run_one=noisy, batch_size=4, max_repeats=8).run()
        est = result.estimate("value")
        assert est.n == 8
        assert est.ci_low <= est.mean <= est.ci_high
        assert result.batch_sizes == [4, 4]
        assert "value" in result.metrics()

    def test_shape_defaults_to_target(self):
        result = Repeater(run_one=noisy, batch_size=8, max_repeats=16).run()
        assert result.shape().label in ("unimodal", "multimodal")
