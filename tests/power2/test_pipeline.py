"""Cycle model: anchors, monotonicity, stall accounting."""

import pytest

from repro.power2.config import POWER2_590
from repro.power2.isa import InstructionMix
from repro.power2.pipeline import CycleModel, DependencyProfile, MemoryBehaviour
from repro.workload.kernels import kernel


def run(mix, mem=None, deps=None):
    return CycleModel().execute(
        mix, mem or MemoryBehaviour(), deps or DependencyProfile()
    )


class TestAnchors:
    def test_matmul_near_240_mflops(self):
        """§5: the blocked matmul runs at ≈240 Mflops."""
        k = kernel("matmul_blocked")
        r = CycleModel().execute(k.mix_for_flops(1e7), k.memory_behaviour(), k.deps)
        assert 200.0 <= r.mflops <= 267.0

    def test_cfd_mix_in_workload_band(self):
        """The workload CFD kernel runs at ≈25–35 Mflops flat out, which
        with §5's waits lands jobs in the measured 15–25 band."""
        k = kernel("cfd_multiblock")
        r = CycleModel().execute(k.mix_for_flops(1e7), k.memory_behaviour(), k.deps)
        assert 22.0 <= r.mflops <= 38.0

    def test_npb_bt_near_44(self):
        """Table 4: 44 Mflops/CPU for BT."""
        k = kernel("npb_bt")
        r = CycleModel().execute(k.mix_for_flops(1e7), k.memory_behaviour(), k.deps)
        assert 38.0 <= r.mflops <= 50.0

    def test_nothing_exceeds_peak(self):
        for name in ("matmul_blocked", "cfd_multiblock", "spectral_em", "npb_bt"):
            k = kernel(name)
            r = CycleModel().execute(k.mix_for_flops(1e6), k.memory_behaviour(), k.deps)
            assert r.mflops < POWER2_590.peak_mflops

    def test_delay_per_memory_instruction_near_paper(self):
        """§5: ≈0.12 cycles of miss delay per memory instruction."""
        k = kernel("cfd_multiblock")
        model = CycleModel()
        r = model.execute(k.mix_for_flops(1e6), k.memory_behaviour(), k.deps)
        assert 0.06 <= model.delay_per_memory_instruction(r) <= 0.25


class TestMonotonicity:
    def test_more_ilp_is_faster(self):
        mix = kernel("cfd_multiblock").mix_for_flops(1e6)
        slow = run(mix, deps=DependencyProfile(ilp=0.3))
        fast = run(mix, deps=DependencyProfile(ilp=0.95))
        assert fast.seconds < slow.seconds

    def test_more_misses_is_slower(self):
        mix = kernel("cfd_multiblock").mix_for_flops(1e6)
        clean = run(mix, mem=MemoryBehaviour(dcache_miss_ratio=0.0))
        dirty = run(mix, mem=MemoryBehaviour(dcache_miss_ratio=0.05))
        assert dirty.seconds > clean.seconds

    def test_tlb_misses_cost_more_than_cache_misses(self):
        mix = kernel("cfd_multiblock").mix_for_flops(1e6)
        cache = run(mix, mem=MemoryBehaviour(dcache_miss_ratio=0.01))
        tlb = run(mix, mem=MemoryBehaviour(tlb_miss_ratio=0.01))
        assert tlb.memory_stall_cycles > cache.memory_stall_cycles

    def test_divides_cost_multicycle(self):
        base = InstructionMix(fp_add=1e6)
        divs = InstructionMix(fp_div=1e6)
        assert run(divs).cycles > 5 * run(base).cycles


class TestAccounting:
    def test_cycle_breakdown_sums(self):
        k = kernel("cfd_multiblock")
        r = run(k.mix_for_flops(1e6), mem=k.memory_behaviour(), deps=k.deps)
        assert r.cycles == pytest.approx(
            r.issue_cycles + r.dependency_stall_cycles + r.memory_stall_cycles
        )

    def test_seconds_consistent_with_cycles(self):
        r = run(InstructionMix(fp_add=1e6))
        assert r.seconds == pytest.approx(r.cycles / POWER2_590.clock_hz)

    def test_miss_counts_proportional_to_memory_insts(self):
        mem = MemoryBehaviour(dcache_miss_ratio=0.02, tlb_miss_ratio=0.001)
        r = run(InstructionMix(loads=1e6), mem=mem)
        assert r.dcache_misses == pytest.approx(2e4)
        assert r.tlb_misses == pytest.approx(1e3)

    def test_writebacks_fraction_of_reloads(self):
        mem = MemoryBehaviour(dcache_miss_ratio=0.02, writeback_fraction=0.5)
        r = run(InstructionMix(loads=1e6), mem=mem)
        assert r.dcache_writebacks == pytest.approx(0.5 * r.dcache_reloads)

    def test_empty_mix_is_free(self):
        r = run(InstructionMix())
        assert r.cycles == 0.0 and r.mflops == 0.0

    def test_flops_per_cycle_bounded_by_peak(self):
        r = run(InstructionMix(fp_fma=1e6), deps=DependencyProfile(ilp=1.0, load_use_fraction=0.0))
        assert r.flops_per_cycle <= POWER2_590.peak_flops_per_cycle + 1e-9


class TestValidation:
    def test_invalid_memory_behaviour(self):
        with pytest.raises(ValueError):
            run(InstructionMix(), mem=MemoryBehaviour(dcache_miss_ratio=1.5))

    def test_invalid_dependency_profile(self):
        with pytest.raises(ValueError):
            run(InstructionMix(), deps=DependencyProfile(ilp=-0.1))

    def test_invalid_mix(self):
        with pytest.raises(ValueError):
            run(InstructionMix(fp_add=-5.0))
