"""Study orchestration: end-to-end wiring of the campaign."""

import numpy as np
import pytest

from repro.core.study import StudyConfig, WorkloadStudy, run_study
from repro.workload.traces import generate_trace
from tests.hpm.interval_totals import interval_totals


class TestRun:
    def test_run_produces_dataset(self, small_dataset):
        assert len(small_dataset.collector.intervals()) > 0
        assert len(small_dataset.accounting) > 0
        assert len(small_dataset.utilization_probes) > 0

    def test_sample_count_matches_cadence(self, small_dataset):
        cfg = small_dataset.config
        expected = int(cfg.n_days * 86400 / cfg.sample_interval) + 1  # + baseline
        # One interval per sample after the baseline.
        assert len(small_dataset.collector.intervals()) == expected - 1

    def test_daily_series_lengths(self, small_dataset):
        cfg = small_dataset.config
        assert len(small_dataset.daily_gflops()) == cfg.n_days
        assert len(small_dataset.daily_utilization()) == cfg.n_days

    def test_some_flops_happened(self, small_dataset):
        assert small_dataset.daily_gflops().sum() > 0

    def test_utilization_in_unit_interval(self, small_dataset):
        u = small_dataset.daily_utilization()
        assert (u >= 0).all() and (u <= 1).all()

    def test_interval_gflops_nonnegative(self, small_dataset):
        _, g = small_dataset.interval_gflops()
        assert (g >= 0).all()

    def test_determinism(self):
        cfg = StudyConfig(seed=11, n_days=2, n_nodes=16, n_users=5)
        a, b = run_study(cfg), run_study(cfg)
        np.testing.assert_allclose(a.daily_gflops(), b.daily_gflops())
        assert len(a.accounting) == len(b.accounting)

    def test_trace_machine_mismatch_rejected(self):
        study = WorkloadStudy(StudyConfig(n_days=1, n_nodes=16))
        trace = generate_trace(0, n_days=1, n_nodes=32)
        with pytest.raises(ValueError, match="generated for 32"):
            study.run(trace)

    def test_external_trace_accepted(self):
        trace = generate_trace(5, n_days=1, n_nodes=16, n_users=4)
        ds = WorkloadStudy(StudyConfig(n_days=1, n_nodes=16)).run(trace)
        assert ds.trace is trace


class TestConfigValidation:
    def test_negative_seed_rejected(self):
        """numpy's SeedSequence would refuse it only once trace generation
        starts, as a traceback."""
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            StudyConfig(seed=-1)
        assert StudyConfig(seed=0).seed == 0


class TestConsistency:
    def test_counters_monotonic_across_samples(self, small_dataset):
        """Per node, on the same campaign run keeping its samples."""
        kept = WorkloadStudy(small_dataset.config, keep_samples=True).run()
        assert kept.collector.intervals() == small_dataset.collector.intervals()
        samples = kept.collector.samples
        assert len(samples) == len(kept.collector.intervals()) + 1
        for before, after in zip(samples, samples[1:]):
            assert (after.matrix - before.matrix >= 0).all()

    def test_system_gflops_consistent_with_job_flops(self, small_dataset):
        """Flops seen by the 15-min sampler ≈ flops accounted to jobs
        plus still-running work (jobs produce all user-mode flops)."""
        sampled = 0
        for iv in small_dataset.collector.intervals():
            totals = interval_totals(iv)
            sampled += (
                totals.get("user.fpu0_fp_add", 0)
                + totals.get("user.fpu1_fp_add", 0)
                + totals.get("user.fpu0_fp_mul", 0)
                + totals.get("user.fpu1_fp_mul", 0)
                + 2 * totals.get("user.fpu0_fp_muladd", 0)
                + 2 * totals.get("user.fpu1_fp_muladd", 0)
            )
        from repro.pbs.job import JobRecord

        accounted = sum(
            JobRecord.flops_from_deltas(r.summed_deltas())
            for r in small_dataset.accounting.records
        )
        assert accounted <= sampled * 1.001
        assert accounted >= 0.5 * sampled  # most work finishes in-horizon

    def test_busy_days_need_busy_probes(self, small_dataset):
        g = small_dataset.daily_gflops()
        u = small_dataset.daily_utilization()
        # Performance requires utilization: the top-G day cannot be idle.
        assert u[int(np.argmax(g))] > 0.2


class TestDerivedSeriesCache:
    def test_series_derived_once_per_interval_list(self, monkeypatch):
        """The columnar interval view and the daily_rates/interval_gflops
        series built on it are derived once per collector interval list,
        and a dataset whose collector takes another sample derives them
        again."""
        import repro.core.study as study_mod

        calls = {"columns": 0, "row_rates": 0, "column_rates": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in ("row_rates", "column_rates"):
            monkeypatch.setattr(study_mod, name, counting(name, getattr(study_mod, name)))
        columns = study_mod._IntervalColumns
        monkeypatch.setattr(
            columns, "of", classmethod(counting("columns", columns.of.__func__))
        )
        ds = run_study(StudyConfig(seed=3, n_days=2, n_nodes=16, n_users=4))
        first_daily, first_times = ds.daily_rates(), ds.interval_gflops()[0]
        ds.interval_dma_bytes_per_node()
        derived = dict(calls)
        assert derived == {"columns": 1, "row_rates": len(first_daily), "column_rates": 1}
        for _ in range(3):
            assert ds.daily_rates() == first_daily
            np.testing.assert_array_equal(ds.interval_gflops()[0], first_times)
            ds.interval_dma_bytes_per_node()
        assert calls == derived
        # Callers get their own copies: mutating one changes no other read.
        ds.daily_rates().clear()
        ds.interval_gflops()[1][:] = -1.0
        ds.interval_dma_bytes_per_node()[0][:] = -1.0
        assert ds.daily_rates() == first_daily
        assert (ds.interval_gflops()[1] >= 0).all()
        np.testing.assert_array_equal(ds.interval_gflops()[0], first_times)

        ds.collector.collect(ds.collector.last_sample.time + ds.config.sample_interval)
        times, _ = ds.interval_gflops()
        assert len(times) == len(first_times) + 1
        assert calls["columns"] == 2 and calls["column_rates"] == 2
