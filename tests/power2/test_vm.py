"""AIX-style VM model: invariants, fault classes, analytic agreement."""

import numpy as np
import pytest

from repro.power2.config import MachineConfig
from repro.power2.node import compute_paging_state
from repro.power2.vm import FaultKind, VirtualMemory

PAGE = 4096


def small_vm(n_pages: int = 16, **kw) -> VirtualMemory:
    cfg = MachineConfig(memory_bytes=n_pages * PAGE)
    return VirtualMemory(cfg, pinned_fraction=0.0, **kw)


class TestBasics:
    def test_first_touch_is_zero_fill(self):
        vm = small_vm()
        assert vm.touch(1, 0) is FaultKind.ZERO_FILL
        assert vm.touch(1, 100) is None  # same page now resident

    def test_fits_in_memory_never_hard_faults(self):
        vm = small_vm(n_pages=32)
        for _ in range(5):
            for p in range(16):
                vm.touch(1, p * PAGE)
        assert vm.stats.hard_faults == 0
        assert vm.stats.zero_fill_faults == 16
        vm.stats.check()

    def test_frames_conserved(self):
        vm = small_vm(n_pages=8)
        for p in range(50):
            vm.touch(1, p * PAGE)
        assert vm.frames_used <= vm.n_frames

    def test_resident_pages_per_process(self):
        vm = small_vm(n_pages=16)
        vm.touch(1, 0)
        vm.touch(1, PAGE)
        vm.touch(2, 0)
        assert vm.resident_pages(1) == 2
        assert vm.resident_pages(2) == 1

    def test_processes_do_not_alias_pages(self):
        vm = small_vm()
        vm.touch(1, 0, write=True)
        assert vm.touch(2, 0) is FaultKind.ZERO_FILL

    def test_invalid_pinned_fraction(self):
        with pytest.raises(ValueError):
            VirtualMemory(pinned_fraction=1.0)


class TestEvictionAndFaults:
    def test_dirty_eviction_pages_out_then_hard_faults(self):
        vm = small_vm(n_pages=4)
        # Dirty all frames, then stream far past capacity.
        for p in range(4):
            vm.touch(1, p * PAGE, write=True)
        for p in range(4, 20):
            vm.touch(1, p * PAGE)
        assert vm.stats.pageouts > 0
        # Re-touch an early dirty page: must be a hard fault.
        kind = vm.touch(1, 0)
        assert kind in (FaultKind.HARD, FaultKind.RECLAIM)
        if kind is FaultKind.HARD:
            assert vm.stats.hard_faults >= 1

    def test_clean_eviction_recall_is_reclaim(self):
        vm = small_vm(n_pages=4)
        for p in range(12):
            vm.touch(1, p * PAGE)  # clean stream
        assert vm.touch(1, 0) is FaultKind.RECLAIM

    def test_second_chance_respects_reference_bit(self):
        vm = small_vm(n_pages=3)
        vm.touch(1, 0 * PAGE)
        vm.touch(1, 1 * PAGE)
        vm.touch(1, 2 * PAGE)
        # Keep page 0 hot, then fault in a new page: 0 must survive.
        vm.touch(1, 0)
        vm.touch(1, 3 * PAGE)
        assert vm.touch(1, 0) is None

    def test_hard_fault_costs_disk_time(self):
        vm = small_vm()
        assert vm.fault_service_seconds(FaultKind.HARD) > 10 * vm.fault_service_seconds(
            FaultKind.ZERO_FILL
        )

    def test_terminate_releases_everything(self):
        vm = small_vm(n_pages=4)
        for p in range(10):
            vm.touch(1, p * PAGE, write=True)
        before = vm.frames_used
        freed = vm.terminate(1)
        assert freed == before
        assert vm.frames_used == 0
        assert vm.resident_pages(1) == 0
        assert vm.touch(1, 0) is FaultKind.ZERO_FILL  # fresh process image


class TestOversubscription:
    def _thrash(self, working_set_pages: int, n_frames: int, refs: int = 30_000):
        vm = small_vm(n_pages=n_frames)
        rng = np.random.default_rng(5)
        pages = rng.integers(0, working_set_pages, size=refs)
        writes = rng.random(refs) < 0.3
        for p, w in zip(pages, writes):
            vm.touch(1, int(p) * PAGE, write=bool(w))
        return vm

    def test_oversubscription_produces_hard_faults(self):
        vm = self._thrash(working_set_pages=64, n_frames=16)
        assert vm.stats.hard_faults > 0
        assert vm.stats.service_seconds > 0

    def test_fault_rate_grows_with_oversubscription(self):
        mild = self._thrash(working_set_pages=20, n_frames=16)
        severe = self._thrash(working_set_pages=128, n_frames=16)
        assert severe.stats.hard_fault_ratio > 2 * mild.stats.hard_fault_ratio

    def test_fits_means_no_steady_state_faults(self):
        vm = self._thrash(working_set_pages=12, n_frames=16)
        # Only the 12 first-touch zero-fills.
        assert vm.stats.faults == 12


class TestAnalyticAgreement:
    def test_stolen_fraction_same_order_as_analytic(self):
        """The campaign's analytic paging model and the trace-driven VM
        must agree on the *severity class* of an oversubscribed job:
        both sides say a 1.5x working set is time-dominated by fault
        service."""
        n_frames = 512
        cfg = MachineConfig(memory_bytes=n_frames * PAGE)
        vm = VirtualMemory(cfg, pinned_fraction=0.0)
        over = 1.5
        working = int(n_frames * over)
        rng = np.random.default_rng(9)
        refs = 200_000
        for p in np.asarray(rng.integers(0, working, size=refs)):
            vm.touch(1, int(p) * PAGE, write=True)

        # Trace side: service seconds per reference vs useful time per
        # reference (~1 memory instruction each, ~3 cycles of work).
        useful = refs * 3.0 * cfg.cycle_seconds
        trace_stolen = vm.stats.service_seconds / (
            vm.stats.service_seconds + useful
        )

        analytic = compute_paging_state(over * cfg.memory_bytes, cfg.memory_bytes, cfg)
        # Both models must agree this is a thrashing regime.
        assert trace_stolen > 0.5
        assert analytic.stolen_fraction > 0.5
