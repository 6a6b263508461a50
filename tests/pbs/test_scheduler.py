"""PBS server: scheduling flow, prologue/epilogue, paging transform."""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.cluster.machine import SP2Machine
from repro.pbs.scheduler import PBSServer, apply_paging_to_rates
from repro.power2.config import POWER2_590
from repro.power2.counters import Mode, counter_index, rates_vector
from repro.sim.engine import Simulator
from tests.pbs.counter_deltas import counter_deltas
from tests.power2.accrual_reference import reference_accrual, served


class Profile:
    """Minimal ExecutionProfile for scheduler tests."""

    def __init__(self, walltime=2000.0, memory=64e6, fpu_rate=1e6):
        self.walltime_seconds = walltime
        self.memory_bytes_per_node = memory
        self.user_rates = rates_vector(
            {"fpu0": fpu_rate, "fpu0_fp_add": fpu_rate, "fxu0": 2 * fpu_rate, "cycles": 3e7}
        )
        self.system_rates = rates_vector({"fxu0": 1e5, "cycles": 1e6})
        self.mflops_per_node = fpu_rate / 1e6


def server(n_nodes=16) -> PBSServer:
    return PBSServer(Simulator(), SP2Machine(n_nodes))


class TestLifecycle:
    def test_job_starts_immediately_when_nodes_free(self):
        s = server()
        s.submit(0, "app", 4, Profile())
        assert s.n_running == 1
        assert s.machine.n_free == 12

    def test_job_ends_on_schedule_and_releases_nodes(self):
        s = server()
        s.submit(0, "app", 4, Profile(walltime=500.0))
        s.sim.run()
        assert s.n_running == 0
        assert s.machine.n_free == 16
        assert len(s.accounting) == 1
        assert s.accounting.records[0].walltime_seconds == pytest.approx(500.0)

    def test_queued_job_starts_after_blocker_ends(self):
        s = server(n_nodes=8)
        s.submit(0, "big", 8, Profile(walltime=100.0))
        s.submit(1, "next", 8, Profile(walltime=100.0))
        assert s.n_running == 1
        s.sim.run()
        recs = s.accounting.records
        assert len(recs) == 2
        assert recs[1].start_time == pytest.approx(100.0)

    def test_too_wide_job_rejected(self):
        s = server(n_nodes=8)
        with pytest.raises(ValueError):
            s.submit(0, "app", 9, Profile())

    def test_job_ids_monotonic(self):
        s = server()
        a = s.submit(0, "a", 1, Profile())
        b = s.submit(0, "b", 1, Profile())
        assert b.job_id == a.job_id + 1

    def test_on_job_end_observer(self):
        s = server()
        seen = []
        s.on_job_end = seen.append
        s.submit(0, "app", 2, Profile(walltime=10.0))
        s.sim.run()
        assert len(seen) == 1 and seen[0].app_name == "app"


class TestCounterCapture:
    def test_epilogue_deltas_match_rates(self):
        s = server()
        s.submit(0, "app", 2, Profile(walltime=1000.0, fpu_rate=1e6))
        s.sim.run()
        rec = s.accounting.records[0]
        assert set(counter_deltas(rec)) == set(rec.node_ids)
        for deltas in counter_deltas(rec).values():
            assert deltas["user.fpu0"] == pytest.approx(1e9, rel=1e-6)

    def test_mflops_per_node_from_counters(self):
        s = server()
        s.submit(0, "app", 2, Profile(walltime=1000.0, fpu_rate=5e6))
        s.sim.run()
        rec = s.accounting.records[0]
        # fp_add rate == fpu rate, so 5 Mflops/node.
        assert rec.mflops_per_node == pytest.approx(5.0, rel=1e-6)

    def test_deltas_isolate_consecutive_jobs(self):
        """The second job's prologue must not see the first job's work."""
        s = server(n_nodes=2)
        s.submit(0, "first", 2, Profile(walltime=100.0, fpu_rate=1e6))
        s.submit(0, "second", 2, Profile(walltime=100.0, fpu_rate=3e6))
        s.sim.run()
        first, second = s.accounting.records
        assert counter_deltas(first)[0]["user.fpu0"] == pytest.approx(1e8, rel=1e-6)
        assert counter_deltas(second)[0]["user.fpu0"] == pytest.approx(3e8, rel=1e-6)

    @pytest.mark.parametrize("backend", ["scalar", "auto"])
    def test_counter_rollback_fails_the_epilogue_in_one_line(self, backend):
        """A counter that went backwards between prologue and epilogue
        names the job, the node, the counter and both readings, on the
        scalar reference and on the store."""
        with reference_accrual() if backend == "scalar" else nullcontext([]) as built:
            s = server(n_nodes=2)
        s.submit(0, "first", 2, Profile(walltime=1000.0))
        second = s.submit(0, "second", 2, Profile(walltime=1000.0))
        s.sim.run(until=1400.0)
        running = s.running[second.job_id]
        node_id = running.node_ids[1]
        fxu0 = counter_index("fxu0")  # user.fxu0: the first flat column
        before = int(running.prologue[1, fxu0])
        node = s.machine.node(node_id)
        node.sync(1400.0)
        node.monitor.banks[Mode.USER].reset()
        with pytest.raises(ValueError) as err:
            s.sim.run()
        after = int(s.machine.read_counters([node_id], 2000.0)[0, fxu0])
        assert 0 < after < before
        assert str(err.value) == (
            f"job {second.job_id}: node {node_id} counter user.fxu0 "
            f"went backwards ({before} -> {after})"
        )
        assert bool(served(built)) == (backend == "scalar")

    def test_memory_released_after_job(self):
        s = server()
        s.submit(0, "app", 2, Profile(walltime=10.0, memory=100e6))
        s.sim.run()
        assert all(n.memory_used == 0.0 for n in s.machine.nodes)


class TestTransitionStoreCalls:
    """Whatever the job's width, a job start and a job end each touch
    the counter store with one ``sync_slots`` (the prologue or epilogue
    read) and one ``install`` over the job's slots, and a kill with one
    ``sync_slots`` and one ``install``: never a per-node ``sync_one``."""

    @staticmethod
    def spy(monkeypatch, store) -> list[str]:
        calls: list[str] = []
        for name in ("sync_one", "sync_slots", "install"):
            original = getattr(store, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(store, name, spy)
        return calls

    @pytest.mark.parametrize("width", [1, 5, 16])
    def test_start_and_end(self, monkeypatch, width):
        s = server()
        calls = self.spy(monkeypatch, s.machine.store)
        s.submit(0, "app", width, Profile(walltime=500.0))
        assert calls == ["sync_slots", "install"]
        calls.clear()
        s.sim.run()
        assert calls == ["sync_slots", "install"]
        assert len(s.accounting) == 1

    def test_kill(self, monkeypatch):
        s = server()
        job = s.submit(0, "app", 5, Profile(walltime=500.0))
        s.sim.run(until=100.0)
        victim = s.running[job.job_id].node_ids[2]
        s.machine.crash_node(victim)
        s.max_retries = 0
        calls = self.spy(monkeypatch, s.machine.store)
        assert s.kill_jobs_on_node(victim) == [job]
        assert calls == ["sync_slots", "install"]


class TestPagingTransform:
    def test_no_paging_within_memory(self):
        user = rates_vector({"fpu0": 1e6})
        system = rates_vector({"fxu0": 1e5})
        u, sys_, slow = apply_paging_to_rates(user, system, 100e6, POWER2_590)
        assert slow == 1.0
        np.testing.assert_array_equal(u, user)
        np.testing.assert_array_equal(sys_, system)

    def test_oversubscription_slows_user_and_inflates_system(self):
        user = rates_vector({"fpu0": 1e6, "fxu0": 2e6})
        system = rates_vector({"fxu0": 1e5})
        u, sys_, slow = apply_paging_to_rates(user, system, 200e6, POWER2_590)
        assert slow < 0.1
        assert u[counter_index("fpu0")] < 0.1e6
        assert sys_[counter_index("fxu0")] > 1e6  # VMM work dominates

    def test_paging_adds_dma_page_traffic(self):
        user = rates_vector({"fpu0": 1e6})
        system = rates_vector({})
        _, sys_, _ = apply_paging_to_rates(user, system, 200e6, POWER2_590)
        assert sys_[counter_index("dma_read")] > 0
        assert sys_[counter_index("dma_write")] > 0

    def test_paging_job_end_to_end(self):
        """§6: a thrashing job's record shows system FXU > user FXU."""
        s = server()
        s.submit(0, "thrash", 2, Profile(walltime=1000.0, memory=1.8 * 128 * 1024 * 1024))
        s.sim.run()
        rec = s.accounting.records[0]
        assert rec.system_user_fxu_ratio > 1.0
        assert rec.mflops_per_node < 0.1


class TestUtilizationProbe:
    def test_busy_node_count(self):
        s = server()
        s.submit(0, "a", 3, Profile())
        s.submit(0, "b", 5, Profile())
        assert s.busy_node_count() == 8


class TestInjectedCollaborators:
    def test_empty_queue_instance_is_respected(self):
        """Regression: `queue or JobQueue()` discarded caller-supplied
        (empty, hence falsy) queues, silently reverting the policy."""
        from repro.pbs.accounting import AccountingLog
        from repro.pbs.queue import JobQueue

        q = JobQueue(wide_threshold=1)
        log = AccountingLog()
        s = PBSServer(Simulator(), SP2Machine(4), queue=q, accounting=log)
        assert s.queue is q
        assert s.accounting is log
