"""The collector's batched sweep vs. the per-daemon scalar path.

When every daemon's node shares one counter store (the vectorized
accrual backend), :class:`SystemCollector` collapses its per-node
sampling loop into one ``sync_slots`` sweep.  These are regression tests
for the one real hazard in that collapse: an *unreachable* node must be
masked out of the sweep entirely — its counters AND its sync clock must
not advance — because a scalar collector never touches a down node, and
float accrual does not distribute over a late catch-up sync
(``rate*dt1 + rate*dt2 != rate*(dt1+dt2)`` bitwise).
"""

import numpy as np

from repro.hpm.collector import SystemCollector
from repro.hpm.daemon import NodeDaemon
from repro.power2.batch import make_store
from repro.power2.counters import rates_vector
from repro.power2.node import Node

# Rates chosen so rate*dt accumulates rounding: per-interval syncs and a
# single catch-up sync differ in the low mantissa bits, which is exactly
# what these tests must be able to detect.
RATES = {"fpu0_fp_add": 1.1e6 / 3.0, "fpu0": 0.7e6 / 3.0, "cycles": 6.65e7 / 3.0}


def make_stacks(n=4, backend="numpy"):
    """Parallel scalar and store-backed collector stacks over n nodes."""
    scalar_nodes = [Node(i) for i in range(n)]
    store = make_store(n, backend)
    batched_nodes = []
    for i in range(n):
        node = Node(i)
        node.attach_store(store, i)
        batched_nodes.append(node)
    for node in scalar_nodes + batched_nodes:
        node.install_rates(0.0, rates_vector(RATES), busy=True)
    scalar_col = SystemCollector([NodeDaemon.for_node(n) for n in scalar_nodes])
    batched_col = SystemCollector([NodeDaemon.for_node(n) for n in batched_nodes])
    assert batched_col._store is store  # the fast path actually engaged
    assert scalar_col._store is None
    return scalar_col, batched_col


def assert_samples_identical(a: SystemCollector, b: SystemCollector):
    assert len(a.samples) == len(b.samples)
    for x, y in zip(a.samples, b.samples):
        assert x.time == y.time
        assert x.node_ids == y.node_ids
        assert x.missing == y.missing
        assert np.array_equal(x.matrix, np.asarray(y.matrix))


class TestBatchedSweepEquivalence:
    def test_all_up_passes_identical(self):
        scalar, batched = make_stacks()
        for t in (0.0, 900.0, 1800.0, 2700.0):
            scalar.collect(t)
            batched.collect(t)
        assert_samples_identical(scalar, batched)
        assert len(scalar.intervals()) == 3


class TestUnreachableNodeMasking:
    def test_down_node_clock_does_not_advance(self):
        """The regression: a down node must be excluded from the batched
        sweep, not synced and discarded."""
        _, batched = make_stacks(n=2)
        store = batched._store
        batched.collect(0.0)
        batched.daemons[1].mark_down()
        batched.collect(900.0)
        assert batched.samples[1].missing == (1,)
        assert store.last_sync(0) == 900.0
        assert store.last_sync(1) == 0.0  # untouched while unreachable

    def test_outage_and_recovery_bitwise_identical(self):
        """Down across several passes, then back: every sample byte
        matches the scalar collector, including the catch-up sample
        (both paths defer the down node's whole outage to one sync)."""
        scalar, batched = make_stacks(n=4)
        schedule = [
            (0.0, None),
            (900.0, ("down", 2)),
            (1800.0, None),
            (2700.0, ("down", 0)),
            (3600.0, ("up", 2)),
            (4500.0, ("up", 0)),
            (5400.0, None),
        ]
        for t, change in schedule:
            if change is not None:
                op, idx = change
                for col in (scalar, batched):
                    if op == "down":
                        col.daemons[idx].mark_down()
                    else:
                        col.daemons[idx].mark_up()
            scalar.collect(t)
            batched.collect(t)
        assert_samples_identical(scalar, batched)
        assert any(s.missing for s in scalar.samples)
        iv_a, iv_b = scalar.intervals(), batched.intervals()
        assert [i.totals for i in iv_a] == [i.totals for i in iv_b]
        assert [i.n_nodes for i in iv_a] == [i.n_nodes for i in iv_b]

    def test_all_nodes_down_pass(self):
        scalar, batched = make_stacks(n=2)
        for col in (scalar, batched):
            col.collect(0.0)
            for d in col.daemons:
                d.mark_down()
            col.collect(900.0)
            for d in col.daemons:
                d.mark_up()
            col.collect(1800.0)
        assert_samples_identical(scalar, batched)
        assert scalar.samples[1].node_ids == ()
        assert scalar.samples[1].missing == (0, 1)


class TestFastPathGating:
    def test_mixed_stores_fall_back_to_scalar_path(self):
        """Nodes on different stores (or none) must not engage the
        batched sweep."""
        a = Node(0)
        a.attach_store(make_store(1, "numpy"), 0)
        b = Node(1)  # detached
        b.install_rates(0.0, rates_vector(RATES), busy=True)
        a.install_rates(0.0, rates_vector(RATES), busy=True)
        col = SystemCollector([NodeDaemon.for_node(a), NodeDaemon.for_node(b)])
        assert col._store is None
        col.collect(0.0)
        col.collect(900.0)
        assert col.samples[1].node_ids == (0, 1)
