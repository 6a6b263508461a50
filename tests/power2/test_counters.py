"""The 22-counter hardware monitor: layout, modes, wrap, broken divide.

Banks and monitors are the counter store's views of one slot."""

import numpy as np
import pytest

from repro.power2.batch import CounterStore, StoreBankView, StoreMonitor
from repro.power2.counters import (
    BANK_SIZE,
    BROKEN_COUNTERS,
    COUNTER_LAYOUT,
    COUNTER_MODULUS,
    COUNTER_NAMES,
    FLAT_NAMES,
    Mode,
    counter_index,
    execution_event_counts,
    rates_vector,
    snapshot_delta,
    wrapped_delta,
)
from repro.power2.isa import InstructionMix
from repro.power2.pipeline import CycleModel, DependencyProfile, MemoryBehaviour


def bank() -> StoreBankView:
    """A fresh user bank: slot 0 of a one-slot store."""
    return StoreBankView(CounterStore(1), 0, Mode.USER)


def monitor() -> StoreMonitor:
    """A fresh monitor: both banks of a one-slot store."""
    return StoreMonitor(CounterStore(1), 0)


def some_execution():
    mix = InstructionMix(
        fp_add=100.0, fp_mul=50.0, fp_div=5.0, fp_fma=80.0, fp_misc=10.0,
        loads=300.0, stores=100.0, int_ops=30.0, branches=60.0, cr_ops=10.0,
    )
    return CycleModel().execute(
        mix, MemoryBehaviour(dcache_miss_ratio=0.01, tlb_miss_ratio=0.001),
        DependencyProfile(),
    )


class TestLayout:
    def test_22_counters(self):
        """§3: 22 counters — 5 each for FXU/FPU0/FPU1/SCU, 2 for ICU."""
        assert BANK_SIZE == 22
        groups = {}
        for spec in COUNTER_LAYOUT:
            groups.setdefault(spec.group, []).append(spec.slot)
        assert sorted(groups["FXU"]) == [0, 1, 2, 3, 4]
        assert sorted(groups["FPU0"]) == [0, 1, 2, 3, 4]
        assert sorted(groups["FPU1"]) == [0, 1, 2, 3, 4]
        assert sorted(groups["ICU"]) == [0, 1]
        assert sorted(groups["SCU"]) == [0, 1, 2, 3, 4]

    def test_counter_index_roundtrip(self):
        for i, name in enumerate(COUNTER_NAMES):
            assert counter_index(name) == i

    def test_unknown_counter_raises(self):
        with pytest.raises(KeyError):
            counter_index("nonexistent")

    def test_flat_names_cover_both_modes(self):
        assert len(FLAT_NAMES) == 2 * BANK_SIZE
        assert FLAT_NAMES[0].startswith("user.")
        assert FLAT_NAMES[BANK_SIZE].startswith("system.")


class TestCounterBank:
    def test_add_and_read(self):
        b = bank()
        b.add("fxu0", 100.0)
        assert b.read("fxu0") == 100

    def test_negative_add_rejected(self):
        with pytest.raises(ValueError):
            bank().add("fxu0", -1.0)

    def test_broken_divide_counters_read_zero(self):
        """§3: the divide counters never report."""
        b = bank()
        b.add("fpu0_fp_div", 1000.0)
        b.add("fpu1_fp_div", 1000.0)
        assert b.read("fpu0_fp_div") == 0
        assert b.read("fpu1_fp_div") == 0
        # The events did occur (ground truth keeps them).
        assert b.raw("fpu0_fp_div") == 1000.0

    def test_hardware_read_wraps_32bit(self):
        b = bank()
        b.add("cycles", float(COUNTER_MODULUS + 5))
        assert b.hardware_read("cycles") == 5
        # The software (accumulated) counter does not wrap.
        assert b.read("cycles") == COUNTER_MODULUS + 5

    def test_snapshot_vector_matches_snapshot(self):
        b = bank()
        b.add("fxu0", 7.0)
        b.add("fpu0_fp_div", 3.0)  # broken: must be zero in both
        vec = b.snapshot_vector()
        snap = b.snapshot()
        for i, name in enumerate(COUNTER_NAMES):
            assert vec[i] == snap[name]

    def test_add_vector(self):
        b = bank()
        vec = rates_vector({"fxu0": 2.0, "cycles": 10.0})
        b.add_vector(vec * 3.0)
        assert b.read("fxu0") == 6 and b.read("cycles") == 30

    def test_add_vector_shape_checked(self):
        with pytest.raises(ValueError):
            bank().add_vector(np.zeros(5))

    def test_reset(self):
        b = bank()
        b.add("fxu0", 5.0)
        b.reset()
        assert b.read("fxu0") == 0


class TestDeltas:
    def test_wrapped_delta_no_wrap(self):
        assert wrapped_delta(10, 300) == 290

    def test_wrapped_delta_across_wrap(self):
        assert wrapped_delta(COUNTER_MODULUS - 10, 5) == 15

    def test_wrapped_delta_range_check(self):
        with pytest.raises(ValueError):
            wrapped_delta(-1, 5)
        with pytest.raises(ValueError):
            wrapped_delta(0, COUNTER_MODULUS)

    def test_snapshot_delta(self):
        before = {"a": 5, "b": 10}
        after = {"a": 8, "b": 10}
        assert snapshot_delta(before, after) == {"a": 3, "b": 0}

    def test_snapshot_delta_key_mismatch(self):
        with pytest.raises(ValueError):
            snapshot_delta({"a": 1}, {"b": 1})

    def test_snapshot_delta_backwards_counter(self):
        with pytest.raises(ValueError):
            snapshot_delta({"a": 10}, {"a": 5})


class TestHardwareMonitor:
    def test_accrue_routes_by_mode(self):
        m = monitor()
        r = some_execution()
        m.accrue(r, Mode.USER)
        assert m.banks[Mode.USER].read("fxu0") > 0
        assert m.banks[Mode.SYSTEM].read("fxu0") == 0

    def test_event_counts_complete(self):
        counts = execution_event_counts(some_execution())
        # Every CPU-side counter is covered (DMA comes from elsewhere).
        assert set(counts) == set(COUNTER_NAMES) - {"dma_read", "dma_write"}

    def test_event_counts_conserve_instructions(self):
        r = some_execution()
        counts = execution_event_counts(r)
        per_unit = (
            counts["fxu0"] + counts["fxu1"] - r.dcache_misses  # miss handling extra
            + counts["fpu0"] + counts["fpu1"]
            + counts["icu0"] + counts["icu1"]
        )
        assert per_unit == pytest.approx(r.mix.total_insts)

    def test_flop_algebra_from_counters(self):
        """Flops recovered from counters == mix flops minus the divides
        the broken counter hides."""
        m = monitor()
        r = some_execution()
        m.accrue(r, Mode.USER)
        b = m.banks[Mode.USER]
        measured = (
            b.raw("fpu0_fp_add") + b.raw("fpu1_fp_add")
            + b.raw("fpu0_fp_mul") + b.raw("fpu1_fp_mul")
            + 2 * (b.raw("fpu0_fp_muladd") + b.raw("fpu1_fp_muladd"))
        )
        true_flops = r.mix.flops
        hidden_divides = r.mix.fp_div + r.mix.fp_sqrt
        assert measured == pytest.approx(true_flops - hidden_divides)

    def test_accrue_dma(self):
        m = monitor()
        m.accrue_dma(reads=10.0, writes=20.0)
        assert m.banks[Mode.USER].read("dma_read") == 10
        assert m.banks[Mode.USER].read("dma_write") == 20

    def test_flat_snapshot_shape(self):
        snap = monitor().flat_snapshot()
        assert set(snap) == set(FLAT_NAMES)

    def test_snapshot_vector_order(self):
        m = monitor()
        m.accrue_raw({"fxu0": 3.0}, Mode.SYSTEM)
        vec = m.snapshot_vector()
        assert vec[BANK_SIZE + counter_index("fxu0")] == 3
        assert vec[counter_index("fxu0")] == 0

    def test_reset(self):
        m = monitor()
        m.accrue_raw({"fxu0": 3.0}, Mode.USER)
        m.reset()
        assert m.banks[Mode.USER].read("fxu0") == 0


class TestRatesVector:
    def test_rates_vector_placement(self):
        v = rates_vector({"tlb_mis": 4.0})
        assert v[counter_index("tlb_mis")] == 4.0
        assert v.sum() == 4.0

    def test_rates_vector_negative_rejected(self):
        with pytest.raises(ValueError):
            rates_vector({"fxu0": -1.0})

    def test_broken_counters_listed(self):
        assert BROKEN_COUNTERS == {"fpu0_fp_div", "fpu1_fp_div"}
