"""The collector's read on the counter store vs. the scalar reference.

A cron pass is one :meth:`~repro.cluster.machine.SP2Machine.read_counters`
call: a single ``sync_slots`` sweep over the machine's counter store.
On a machine built on the per-node reference
(``tests/power2/accrual_reference.py``) it is a per-node loop instead.
These are regression tests for the one real hazard in the sweep: an
*unreachable* node must be masked out of it entirely — its counters AND
its sync clock must not advance — because a per-node collector never
touches a down node, and float accrual does not distribute over a late
catch-up sync (``rate*dt1 + rate*dt2 != rate*(dt1+dt2)`` bitwise).
"""

import numpy as np
import pytest

from repro.cluster.machine import SP2Machine
from repro.hpm.collector import SystemCollector
from repro.power2.batch import CounterStore
from repro.power2.counters import rates_vector
from tests.hpm.interval_totals import interval_totals
from tests.power2.accrual_reference import ReferenceStore, reference_accrual

# Rates chosen so rate*dt accumulates rounding: per-interval syncs and a
# single catch-up sync differ in the low mantissa bits, which is exactly
# what these tests must be able to detect.
RATES = {"fpu0_fp_add": 1.1e6 / 3.0, "fpu0": 0.7e6 / 3.0, "cycles": 6.65e7 / 3.0}


def make_stacks(n=4):
    """Parallel reference and store-backed collector stacks over n nodes."""
    with reference_accrual():
        reference = SP2Machine(n)
    cols = []
    for machine in (reference, SP2Machine(n)):
        for node in machine.nodes:
            node.install_rates(0.0, rates_vector(RATES), busy=True)
        cols.append(SystemCollector(machine))
    scalar_col, batched_col = cols
    assert isinstance(batched_col.machine.store, CounterStore)  # the sweep engaged
    assert isinstance(scalar_col.machine.store, ReferenceStore)
    return scalar_col, batched_col


def assert_samples_identical(a: SystemCollector, b: SystemCollector):
    """Same samples; ``a``'s were read through the reference."""
    assert a.machine.store.reads
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
        store = batched.machine.store
        batched.collect(0.0)
        batched.daemons[1].mark_down()
        batched.collect(900.0)
        assert batched.samples[1].missing == (1,)
        assert store.last_sync(0) == 900.0
        assert store.last_sync(1) == 0.0  # untouched while unreachable

    def test_outage_and_recovery_bitwise_identical(self):
        """Down across several passes, then back: every sample byte
        matches the reference collector, including the catch-up sample
        (both defer the down node's whole outage to one sync)."""
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
        assert [interval_totals(i) for i in iv_a] == [interval_totals(i) for i in iv_b]
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
    def test_store_pass_is_one_sweep(self, monkeypatch):
        """A pass where every daemon answers is one ``sync_slots``
        sweep of the store and no per-node sync."""
        _, batched = make_stacks(n=3)
        store = batched.machine.store
        calls = []
        for name in ("sync_one", "sync_slots"):
            original = getattr(store, name)

            def spy(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(store, name, spy)
        batched.collect(900.0)
        assert calls == ["sync_slots"]
        assert batched.samples[0].node_ids == (0, 1, 2)


class TestCronPassStoreCalls:
    """A cron pass touches the counter store exactly twice, whatever the
    machine's width: one ``sync_slots`` sweep and one ``snapshot_matrix``
    read.  Every public store method is spied on, so a pass that grows a
    third call (a separate wall or busy update, a per-node read) fails."""

    @staticmethod
    def spy(monkeypatch, store) -> list[tuple[str, tuple]]:
        calls: list[tuple[str, tuple]] = []
        for name, value in vars(CounterStore).items():
            if name.startswith("_") or not callable(value):
                continue
            original = getattr(store, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                calls.append((_name, args))
                return _original(*args, **kwargs)

            monkeypatch.setattr(store, name, spy)
        return calls

    @pytest.mark.parametrize("n", [1, 4, 32])
    def test_healthy_pass(self, monkeypatch, n):
        _, collector = make_stacks(n=n)
        calls = self.spy(monkeypatch, collector.machine.store)
        collector.collect(900.0)
        assert [name for name, _ in calls] == ["sync_slots", "snapshot_matrix"]
        (_, (swept, now)), (_, read) = calls
        assert swept is collector.machine.node_ids and now == 900.0
        assert read == ()  # every slot, in slot order, without a gather

    def test_pass_with_a_node_down(self, monkeypatch):
        _, collector = make_stacks(n=4)
        collector.daemons[2].mark_down()
        calls = self.spy(monkeypatch, collector.machine.store)
        collector.collect(900.0)
        assert [name for name, _ in calls] == ["sync_slots", "snapshot_matrix"]
        (_, (swept, _)), (_, (read,)) = calls
        for slots in (swept, read):
            assert isinstance(slots, np.ndarray) and slots.dtype == np.intp
            assert slots.tolist() == [0, 1, 3]
        assert collector.samples[-1].missing == (2,)
