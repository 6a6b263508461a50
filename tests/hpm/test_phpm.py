"""PHPM parallel job reports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hpm.phpm import CounterReduction, NodeDiagnosis, ParallelJobReport
from repro.pbs.job import JobRecord
from repro.power2.counters import FLAT_NAMES


def record(per_node_flops, sys_ratios=None, wall=1000.0):
    """Synthetic job record with specified per-node flop counts."""
    n = len(per_node_flops)
    sys_ratios = sys_ratios or [0.02] * n
    deltas = {}
    for nid, (flops, ratio) in enumerate(zip(per_node_flops, sys_ratios)):
        user_fxu = 2.0 * flops
        deltas[nid] = {
            "user.fpu0_fp_add": int(flops),
            "user.fxu0": int(user_fxu / 2),
            "user.fxu1": int(user_fxu / 2),
            "system.fxu0": int(ratio * user_fxu),
        }
    return JobRecord.from_counter_deltas(
        deltas,
        job_id=9,
        user=1,
        app_name="cfd",
        nodes_requested=n,
        node_ids=tuple(range(n)),
        submit_time=0.0,
        start_time=0.0,
        end_time=wall,
    )


class TestReductions:
    def test_reduce_sums_and_bounds(self):
        rep = ParallelJobReport(record([1e9, 2e9, 3e9]))
        red = rep.reduce("user.fpu0_fp_add")
        assert red.total == pytest.approx(6e9)
        assert red.minimum == pytest.approx(1e9)
        assert red.maximum == pytest.approx(3e9)
        assert red.mean == pytest.approx(2e9)
        assert red.imbalance == pytest.approx(1.5)

    def test_missing_counter_reduces_to_zero(self):
        rep = ParallelJobReport(record([1e9]))
        red = rep.reduce("user.tlb_mis")
        assert red.total == 0.0
        assert red.imbalance == 1.0

    def test_reductions_batch(self):
        rep = ParallelJobReport(record([1e9, 1e9]))
        out = rep.reductions(["user.fxu0", "user.fxu1"])
        assert set(out) == {"user.fxu0", "user.fxu1"}

    def test_empty_record_rejected(self):
        with pytest.raises(ValueError, match="no per-node counter data"):
            ParallelJobReport(record([]))

    def test_unknown_counter_rejected(self):
        with pytest.raises(ValueError, match="unknown counter 'user.fxu9'"):
            ParallelJobReport(record([1e9])).reduce("user.fxu9")


class TestBalance:
    def test_balanced_job(self):
        rep = ParallelJobReport(record([1e9] * 8))
        assert rep.flop_imbalance() == pytest.approx(1.0)
        assert rep.stragglers() == []

    def test_straggler_detected_worst_first(self):
        rep = ParallelJobReport(record([1e9, 1e9, 1e9, 1e8]))
        stragglers = rep.stragglers()
        assert len(stragglers) == 1
        assert stragglers[0].node_id == 3

    def test_paging_straggler_diagnosed(self):
        """§6: the slow node's system-mode counters give paging away."""
        rep = ParallelJobReport(
            record([1e9, 1e9, 5e7], sys_ratios=[0.02, 0.02, 4.0])
        )
        worst = rep.stragglers()[0]
        assert worst.node_id == 2
        assert worst.paging_suspect

    def test_healthy_straggler_not_paging_suspect(self):
        rep = ParallelJobReport(record([1e9, 1e9, 5e7]))
        worst = rep.stragglers()[0]
        assert not worst.paging_suspect

    def test_flop_shares_sum_to_one(self):
        rep = ParallelJobReport(record([3e9, 1e9, 4e9]))
        shares = [d.flop_share for d in rep.diagnose_nodes()]
        assert sum(shares) == pytest.approx(1.0)

    def test_diagnoses_sorted_by_flops(self):
        rep = ParallelJobReport(record([3e9, 1e9, 4e9]))
        flops = [d.flops for d in rep.diagnose_nodes()]
        assert flops == sorted(flops)


class TestSummary:
    def test_summary_mentions_imbalance_and_stragglers(self):
        rep = ParallelJobReport(
            record([1e9, 1e9, 1e7], sys_ratios=[0.02, 0.02, 3.0])
        )
        text = rep.summary()
        assert "imbalance" in text
        assert "paging" in text

    def test_summary_balanced(self):
        text = ParallelJobReport(record([1e9, 1e9])).summary()
        assert "stragglers" not in text


class PerNodeReference:
    """The PHPM view computed from per-node delta dicts, node by node."""

    def __init__(self, per_node: dict[int, dict[str, int]]) -> None:
        self.per_node = per_node
        self.nodes = sorted(per_node)

    def reduce(self, counter):
        values = np.array([self.per_node[n].get(counter, 0) for n in self.nodes], dtype=float)
        return CounterReduction(
            counter, float(values.sum()), float(values.mean()),
            float(values.min()), float(values.max()),
        )

    def node_flops(self):
        return np.array([JobRecord.flops_from_deltas(self.per_node[n]) for n in self.nodes])

    def flop_imbalance(self):
        flops = self.node_flops()
        return float(flops.max() / flops.mean()) if flops.mean() > 0 else 1.0

    def diagnose_nodes(self):
        flops = self.node_flops()
        out = []
        for nid, f in zip(self.nodes, flops):
            d = self.per_node[nid]
            user = d.get("user.fxu0", 0) + d.get("user.fxu1", 0)
            system = d.get("system.fxu0", 0) + d.get("system.fxu1", 0)
            ratio = (float("inf") if system else 0.0) if user == 0 else system / user
            share = float(f / flops.sum()) if flops.sum() > 0 else 0.0
            out.append(NodeDiagnosis(nid, float(f), share, ratio))
        return sorted(out, key=lambda d: d.flops)

    def stragglers(self):
        mean = self.node_flops().mean()
        return [d for d in self.diagnose_nodes() if d.flops < 0.8 * mean] if mean else []


#: Counter values that reach past 2**53, where int → float rounds.
COUNT = st.one_of(st.just(0), st.integers(0, 2**20), st.integers(2**53 - 8, 2**55))

JOB = st.lists(st.integers(0, 511), min_size=1, max_size=12, unique=True).flatmap(
    lambda ids: st.fixed_dictionaries(
        {nid: st.dictionaries(st.sampled_from(FLAT_NAMES), COUNT) for nid in ids}
    )
)


class TestPerNodeDifferential:
    @settings(max_examples=200, deadline=None)
    @given(JOB)
    def test_matrix_columns_match_per_node_dicts(self, per_node):
        node_ids = tuple(per_node)  # drawn unsorted; the report sorts
        rec = JobRecord.from_counter_deltas(
            per_node, job_id=1, user=0, app_name="app", nodes_requested=len(node_ids),
            node_ids=node_ids, submit_time=0.0, start_time=0.0, end_time=100.0,
        )
        rep, ref = ParallelJobReport(rec), PerNodeReference(per_node)
        for counter in FLAT_NAMES:
            assert rep.reduce(counter) == ref.reduce(counter)
        flops = rep.node_flops()
        assert flops.dtype == ref.node_flops().dtype
        assert flops.tolist() == ref.node_flops().tolist()
        assert rep.flop_imbalance() == ref.flop_imbalance()
        assert rep.diagnose_nodes() == ref.diagnose_nodes()
        assert rep.stragglers() == ref.stragglers()
