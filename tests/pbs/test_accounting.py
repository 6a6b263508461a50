"""Accounting log: §6's filters and figure queries."""

import pytest

from repro.pbs.accounting import AccountingLog
from repro.pbs.job import JobRecord
from repro.power2.counters import FLAT_COLUMN


def record(job_id, nodes, wall, mflops_per_node=20.0, end=None, sys_ratio=0.01):
    """A synthetic record whose counters yield the requested rate."""
    flops_per_node = mflops_per_node * 1e6 * wall
    user_fxu = 2e7 * wall
    deltas = {
        nid: {
            "user.fpu0_fp_add": int(flops_per_node),
            "user.fxu0": int(user_fxu / 2),
            "user.fxu1": int(user_fxu / 2),
            "system.fxu0": int(sys_ratio * user_fxu),
        }
        for nid in range(nodes)
    }
    start = 0.0 if end is None else end - wall
    return JobRecord.from_counter_deltas(
        deltas,
        job_id=job_id,
        user=0,
        app_name="app",
        nodes_requested=nodes,
        node_ids=tuple(range(nodes)),
        submit_time=0.0,
        start_time=start,
        end_time=start + wall,
    )


class TestFilter:
    def test_600_second_filter(self):
        """§6: 'only jobs exceeding 600 seconds of wall clock time'."""
        log = AccountingLog()
        log.append(record(1, 4, 599.0))
        log.append(record(2, 4, 601.0))
        assert [r.job_id for r in log.filtered()] == [2]

    def test_custom_threshold(self):
        log = AccountingLog()
        log.append(record(1, 4, 100.0))
        assert len(log.filtered(min_walltime=50.0)) == 1

    def test_filtered_sorted_by_end_time(self):
        log = AccountingLog()
        log.append(record(1, 4, 1000.0, end=5000.0))
        log.append(record(2, 4, 1000.0, end=2000.0))
        assert [r.job_id for r in log.filtered()] == [2, 1]

    def test_invalid_record_rejected(self):
        log = AccountingLog()
        bad = record(1, 2, 100.0)
        bad.end_time = bad.start_time - 1.0
        with pytest.raises(ValueError):
            log.append(bad)


class TestAggregates:
    def test_time_weighted_mflops(self):
        log = AccountingLog()
        log.append(record(1, 4, 1000.0, mflops_per_node=10.0))
        log.append(record(2, 4, 3000.0, mflops_per_node=30.0))
        expected = (10 * 1000 + 30 * 3000) / 4000
        assert log.time_weighted_mflops_per_node() == pytest.approx(expected, rel=1e-6)

    def test_time_weighted_empty(self):
        assert AccountingLog().time_weighted_mflops_per_node() == 0.0

    def test_walltime_by_nodes_bins(self):
        log = AccountingLog()
        log.append(record(1, 16, 1000.0))
        log.append(record(2, 16, 2000.0))
        log.append(record(3, 8, 700.0))
        bins = {b.nodes: b for b in log.walltime_by_nodes()}
        assert bins[16].job_count == 2
        assert bins[16].total_walltime_seconds == 3000.0
        assert bins[8].job_count == 1

    def test_most_popular_nodes_by_walltime(self):
        """Figure 2's criterion is accumulated walltime, not job count."""
        log = AccountingLog()
        log.append(record(1, 16, 10000.0))
        for i in range(5):
            log.append(record(10 + i, 8, 700.0))
        assert log.most_popular_nodes() == 16

    def test_most_popular_empty_raises(self):
        with pytest.raises(ValueError):
            AccountingLog().most_popular_nodes()

    def test_history_for_nodes_ordered_by_job_id(self):
        log = AccountingLog()
        log.append(record(5, 16, 1000.0))
        log.append(record(2, 16, 1000.0))
        log.append(record(3, 8, 1000.0))
        hist = log.history_for_nodes(16)
        assert [r.job_id for r in hist] == [2, 5]


class TestRegisterReuseAggregates:
    def test_mean_flops_per_memref(self):
        log = AccountingLog()
        log.append(record(1, 4, 1000.0, mflops_per_node=20.0))
        # record(): flops = 20e6*wall per node; user fxu = 2e7*wall per
        # node → flops/memref = 1.0 by construction.
        assert log.mean_flops_per_memref() == pytest.approx(1.0, rel=1e-6)

    def test_mean_flops_per_memref_empty(self):
        assert AccountingLog().mean_flops_per_memref() == 0.0

    def test_top_decile_fma_fraction_empty(self):
        assert AccountingLog().top_decile_fma_fraction() == 0.0

    def test_top_decile_picks_fastest(self):
        log = AccountingLog()
        # Ten slow jobs with no fma, one fast job that is all fma.
        for i in range(10):
            log.append(record(i, 4, 1000.0, mflops_per_node=5.0))
        fast = record(99, 4, 1000.0, mflops_per_node=50.0)
        add, fma = FLAT_COLUMN["user.fpu0_fp_add"], FLAT_COLUMN["user.fpu0_fp_muladd"]
        fast.deltas[:, fma] = fast.deltas[:, add] // 2
        fast.deltas[:, add] = 0
        log.append(fast)
        assert log.top_decile_fma_fraction() == pytest.approx(1.0)
