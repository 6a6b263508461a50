"""Node daemons and the 15-minute system-wide collector."""

import pytest

from repro.cluster.machine import SP2Machine
from repro.hpm.collector import SAMPLE_INTERVAL_SECONDS, SystemCollector
from repro.hpm.daemon import DaemonUnavailable, NodeDaemon
from repro.power2.counters import FLAT_NAMES, rates_vector
from repro.power2.node import Node
from repro.sim.engine import Simulator
from tests.hpm.interval_totals import interval_totals


def make_machine(n=4, rate=1e6):
    machine = SP2Machine(n)
    for node in machine.nodes:
        node.install_rates(
            0.0, rates_vector({"fpu0_fp_add": rate, "cycles": 3e7}), busy=True
        )
    return machine


class TestDaemon:
    def test_serves_snapshots(self):
        d = NodeDaemon.for_node(make_machine(1).nodes[0])
        r = d.request_snapshot(10.0)
        assert r.values["user.fpu0_fp_add"] == pytest.approx(1e7, rel=1e-9)

    def test_down_daemon_raises(self):
        d = NodeDaemon.for_node(Node(0))
        d.mark_down()
        with pytest.raises(DaemonUnavailable):
            d.request_snapshot(1.0)
        d.mark_up()
        d.request_snapshot(1.0)

    def test_vector_matches_dict_snapshot(self):
        """The machine's matrix read and the daemon's dict snapshot
        agree on every counter."""
        machine = make_machine(1)
        d = NodeDaemon.for_node(machine.nodes[0])
        vec = machine.read_counters([0], 5.0)[0]
        snap = d.request_snapshot(5.0).values
        assert dict(zip(FLAT_NAMES, vec.tolist())) == snap


class TestCollector:
    def test_paper_cadence(self):
        assert SAMPLE_INTERVAL_SECONDS == 900.0

    def test_attach_takes_baseline_and_samples(self):
        sim = Simulator()
        col = SystemCollector(make_machine())
        col.attach(sim)
        sim.run(until=3 * 900.0)
        assert len(col.intervals()) == 3  # baseline + 3 passes
        assert col.last_sample.time == 3 * 900.0

    def test_keeps_only_the_latest_sample_unless_asked(self):
        lean = SystemCollector(make_machine(n=2))
        kept = SystemCollector(make_machine(n=2), keep_samples=True)
        for col in (lean, kept):
            for t in (0.0, 900.0, 1800.0):
                taken = col.collect(t)
            assert col.last_sample is taken and taken.time == 1800.0
        assert lean.samples == []
        assert [s.time for s in kept.samples] == [0.0, 900.0, 1800.0]
        assert lean.intervals() == kept.intervals()

    @pytest.mark.parametrize("keep_samples", [False, True])
    def test_dropped_pass_keeps_the_held_sample(self, keep_samples):
        """A lost pass takes nothing: the next interval starts at the
        last pass taken and is flagged interpolated."""
        col = SystemCollector(make_machine(n=2), keep_samples=keep_samples)
        col.collect(0.0)
        col.drop_next_pass()
        assert col.collect(900.0) is None
        assert col.last_sample.time == 0.0
        col.collect(1800.0)
        col.collect(2700.0)
        ivs = col.intervals()
        assert [(iv.start, iv.end, iv.interpolated) for iv in ivs] == [
            (0.0, 1800.0, True),
            (1800.0, 2700.0, False),
        ]
        assert len(col.samples) == (3 if keep_samples else 0)

    def test_interval_totals_sum_nodes(self):
        col = SystemCollector(make_machine(n=3, rate=2e6))
        col.collect(0.0)
        col.collect(100.0)
        ivs = col.intervals()
        assert len(ivs) == 1
        assert interval_totals(ivs[0])["user.fpu0_fp_add"] == pytest.approx(3 * 2e8, rel=1e-6)
        assert ivs[0].n_nodes == 3
        assert ivs[0].seconds == 100.0

    def test_missing_node_skipped_for_interval(self):
        col = SystemCollector(make_machine(n=2))
        daemons = col.daemons
        col.collect(0.0)
        daemons[1].mark_down()
        assert col.collect(100.0).missing == (1,)
        ivs = col.intervals()
        assert ivs[0].n_nodes == 1

    def test_node_recovery_rejoins(self):
        col = SystemCollector(make_machine(n=2))
        daemons = col.daemons
        col.collect(0.0)
        daemons[1].mark_down()
        col.collect(100.0)
        daemons[1].mark_up()
        col.collect(200.0)
        assert col.intervals()[1].n_nodes == 1  # down in 'before' sample

    def test_reachability_is_one_set_the_daemons_share(self):
        """Marking daemons down in any order fills one set, and a pass
        lists the nodes it missed in node order."""
        col = SystemCollector(make_machine(n=4))
        col.daemons[3].mark_down()
        col.daemons[0].mark_down()
        assert all(d.unreachable is col.daemons[0].unreachable for d in col.daemons)
        assert col.daemons[0].unreachable == {0, 3}
        assert [d.available for d in col.daemons] == [False, True, True, False]
        sample = col.collect(10.0)
        assert (sample.node_ids, sample.missing) == ((1, 2), (0, 3))
        col.daemons[0].mark_up()
        col.daemons[3].mark_up()
        assert col.collect(20.0).node_ids == (0, 1, 2, 3)

    def test_passes_share_one_node_ids_tuple_until_a_daemon_changes(self):
        """While no daemon goes down or up, every pass holds the same
        ``node_ids`` tuple object (the identity test in ``sample_delta``,
        one pickled copy per shard); a change builds a new one."""
        col = SystemCollector(make_machine(n=5), keep_samples=True)
        states = [
            (None, (0, 1, 2, 3, 4), ()),
            (("down", 2), (0, 1, 3, 4), (2,)),
            (("down", 0), (1, 3, 4), (0, 2)),
            (("up", 2), (1, 2, 3, 4), (0,)),
            (("up", 0), (0, 1, 2, 3, 4), ()),
        ]
        t = 0.0
        seen = []
        for change, ids, missing in states:
            if change is not None:
                op, idx = change
                getattr(col.daemons[idx], f"mark_{op}")()
            passes = []
            for _ in range(3):
                passes.append(col.collect(t))
                t += 900.0
            first = passes[0]
            assert (first.node_ids, first.missing) == (ids, missing)
            assert all(s.node_ids is first.node_ids for s in passes)
            assert all(s.missing is first.missing for s in passes)
            seen.append(first.node_ids)
        # Every node answering reads the machine's own tuple.
        assert seen[0] is seen[-1] is col.machine.node_ids
        assert len(col.intervals()) == 3 * len(states) - 1

    def test_needs_daemons(self):
        """One daemon per node, and a machine has at least one node."""
        assert len(SystemCollector(make_machine(n=3)).daemons) == 3
        with pytest.raises(ValueError):
            SystemCollector(SP2Machine(0))

    def test_intervals_cache_invalidation(self):
        col = SystemCollector(make_machine(n=1))
        col.collect(0.0)
        col.collect(10.0)
        assert len(col.intervals()) == 1
        col.collect(20.0)
        assert len(col.intervals()) == 2
