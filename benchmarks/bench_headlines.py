"""Experiment: the §5-§7 headline numbers, paper vs measured.

The abstract's claims — 1.3 Gflops ≈ 3% of peak, 64% utilization, a
5.7 Gflops 15-minute peak, 19 Mflops/node time-weighted job average,
fma ≈54% of flops, FPU0:FPU1 ≈1.7, flops/memref ≈0.53, 16 nodes the
most popular choice — all derived from one campaign's counters.
"""

from repro.analysis.report import headline_report, paper_comparison


def test_headlines(campaign, benchmark, capsys):
    report = benchmark(headline_report, campaign)

    by_claim = {h.claim: h for h in report}
    # Every headline within 3x; at least half within ±40%.
    for h in report:
        assert 1 / 3 <= h.ratio <= 3.0, h.claim
    close = sum(1 for h in report if 0.7 <= h.ratio <= 1.4)
    assert close >= len(report) // 2

    # The qualitative claims that define the paper:
    assert by_claim["most popular node count"].measured_value == 16
    assert by_claim["system efficiency (of aggregate peak)"].measured_value < 0.09
    assert by_claim["FPU0:FPU1 instruction ratio"].measured_value > 1.3

    with capsys.disabled():
        print()
        print(paper_comparison(campaign))


def test_campaign_simulation_speed(benchmark):
    """How long a simulated week takes to run (the simulator's own
    performance, not the paper's)."""
    from repro.core.study import StudyConfig, run_study

    result = benchmark.pedantic(
        lambda: run_study(StudyConfig(seed=5, n_days=2, n_nodes=144, n_users=60)),
        rounds=1,
        iterations=1,
    )
    assert len(result.accounting) > 0
