"""Failure injection: node daemons dying and recovering mid-campaign.

§3's collector samples "all the SP2 nodes which are available" — the
real scripts lived with nodes going away.  These tests kill daemons
mid-campaign and check the pipeline degrades the way the real one did:
samples record the missing nodes, interval sums skip them, and analysis
still produces consistent artefacts.
"""

import numpy as np

from repro.core.study import StudyConfig, WorkloadStudy
from repro.workload.traces import generate_trace
from tests.hpm.interval_totals import interval_totals


def run_with_outage(kill_fraction: float = 0.25, *, recover: bool = True):
    """A 4-day campaign where some daemons die on day 2 (and optionally
    come back on day 3)."""
    cfg = StudyConfig(seed=13, n_days=4, n_nodes=32, n_users=8)
    study = WorkloadStudy(cfg)
    victims = study.daemons[: int(kill_fraction * cfg.n_nodes)]

    def kill(sim):
        for d in victims:
            d.mark_down()

    def revive(sim):
        for d in victims:
            d.mark_up()

    study.sim.schedule_at(1.0 * 86400, kill, name="outage")
    if recover:
        study.sim.schedule_at(2.0 * 86400, revive, name="recovery")
    trace = generate_trace(cfg.seed, n_days=cfg.n_days, n_nodes=cfg.n_nodes, n_users=cfg.n_users)
    return study.run(trace), [d.node_id for d in victims]


class TestOutage:
    def test_samples_record_missing_nodes(self):
        dataset, victims = run_with_outage()
        downs = [s for s in dataset.collector.samples if s.missing]
        assert downs, "outage never visible in samples"
        assert set(downs[0].missing) == set(victims)

    def test_intervals_skip_missing_nodes(self):
        dataset, victims = run_with_outage()
        n_nodes = dataset.config.n_nodes
        counts = {iv.n_nodes for iv in dataset.collector.intervals()}
        assert n_nodes in counts  # healthy intervals
        assert (n_nodes - len(victims)) in counts  # outage intervals

    def test_recovery_restores_full_coverage(self):
        dataset, _ = run_with_outage(recover=True)
        last = dataset.collector.samples[-1]
        assert last.missing == ()

    def test_permanent_outage_persists(self):
        dataset, victims = run_with_outage(recover=False)
        last = dataset.collector.samples[-1]
        assert set(last.missing) == set(victims)

    def test_analysis_survives_outage(self):
        dataset, _ = run_with_outage()
        daily = dataset.daily_gflops()
        assert len(daily) == dataset.config.n_days
        assert np.isfinite(daily).all()
        assert daily.min() >= 0.0

    def test_counters_still_monotonic_across_recovery(self):
        """A node returning after an outage must not produce negative
        deltas (its software counters kept accumulating)."""
        dataset, _ = run_with_outage(recover=True)
        for iv in dataset.collector.intervals():
            assert all(v >= 0 for v in interval_totals(iv).values())

    def test_jobs_unaffected_by_monitoring_outage(self):
        """RS2HPM is observational: daemons dying must not perturb PBS."""
        healthy, _ = run_with_outage(kill_fraction=0.0)
        degraded, _ = run_with_outage(kill_fraction=0.25)
        assert len(healthy.accounting) == len(degraded.accounting)
        h = [r.job_id for r in healthy.accounting.records]
        d = [r.job_id for r in degraded.accounting.records]
        assert h == d
