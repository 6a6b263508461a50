"""Property tests: counter banks, wrap algebra, dispatch conservation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.power2.batch import CounterStore, StoreBankView
from repro.power2.counters import (
    BROKEN_COUNTERS,
    COUNTER_MODULUS,
    COUNTER_NAMES,
    Mode,
    wrapped_delta,
)
from repro.power2.dispatch import DispatchModel
from repro.power2.isa import InstructionMix

amounts = st.dictionaries(
    st.sampled_from(COUNTER_NAMES),
    st.floats(min_value=0, max_value=1e12, allow_nan=False),
    max_size=10,
)


def new_bank() -> StoreBankView:
    return StoreBankView(CounterStore(1), 0, Mode.USER)


mixes = st.builds(
    InstructionMix,
    fp_add=st.floats(0, 1e6),
    fp_mul=st.floats(0, 1e6),
    fp_div=st.floats(0, 1e5),
    fp_sqrt=st.floats(0, 1e5),
    fp_fma=st.floats(0, 1e6),
    fp_misc=st.floats(0, 1e5),
    loads=st.floats(0, 1e6),
    stores=st.floats(0, 1e6),
    quad_loads=st.floats(0, 1e5),
    quad_stores=st.floats(0, 1e5),
    int_ops=st.floats(0, 1e5),
    branches=st.floats(0, 1e5),
    cr_ops=st.floats(0, 1e4),
)


class TestBankProperties:
    @given(amounts)
    @settings(max_examples=80, deadline=None)
    def test_counters_monotonic(self, amts):
        bank = new_bank()
        before = {n: bank.read(n) for n in COUNTER_NAMES}
        bank.add_many(amts)
        for n in COUNTER_NAMES:
            assert bank.read(n) >= before[n]

    @given(amounts)
    @settings(max_examples=80, deadline=None)
    def test_broken_counters_always_zero(self, amts):
        bank = new_bank()
        bank.add_many(amts)
        for n in BROKEN_COUNTERS:
            assert bank.read(n) == 0
            assert bank.hardware_read(n) == 0

    @given(amounts)
    @settings(max_examples=50, deadline=None)
    def test_hardware_read_is_software_mod_2_32(self, amts):
        bank = new_bank()
        bank.add_many(amts)
        for n in set(COUNTER_NAMES) - BROKEN_COUNTERS:
            assert bank.hardware_read(n) == bank.read(n) % COUNTER_MODULUS

    @given(amounts)
    @settings(max_examples=50, deadline=None)
    def test_snapshot_vector_consistent_with_reads(self, amts):
        bank = new_bank()
        bank.add_many(amts)
        vec = bank.snapshot_vector()
        for i, n in enumerate(COUNTER_NAMES):
            assert vec[i] == bank.read(n)


class TestWrapProperties:
    @given(
        st.integers(0, COUNTER_MODULUS - 1),
        st.integers(0, COUNTER_MODULUS - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_wrapped_delta_inverts_wrapped_addition(self, start, inc):
        after = (start + inc) % COUNTER_MODULUS
        assert wrapped_delta(start, after) == inc

    @given(st.integers(0, COUNTER_MODULUS - 1))
    @settings(max_examples=50, deadline=None)
    def test_zero_delta(self, v):
        assert wrapped_delta(v, v) == 0


class TestDispatchConservation:
    @given(mixes, st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_fp_instructions_conserved(self, mix, ilp):
        d = DispatchModel(ilp=ilp).split(mix)
        assert d.fpu0 + d.fpu1 == pytest.approx(mix.fpu_insts, abs=1e-6)

    @given(mixes, st.floats(0.0, 1.0), st.floats(0, 1e5))
    @settings(max_examples=100, deadline=None)
    def test_fxu_conserved_up_to_miss_handling(self, mix, ilp, misses):
        d = DispatchModel(ilp=ilp).split(mix, dcache_miss_handling=misses)
        assert d.fxu_total == pytest.approx(mix.fxu_insts + misses, abs=1e-6)

    @given(mixes, st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_fpu0_never_below_fpu1_for_uniform_work(self, mix, ilp):
        d = DispatchModel(ilp=ilp).split(mix)
        # FPU0 receives at least as much pipelined work as FPU1 by
        # construction (dispatch fills FPU0 first); allow tiny float slop.
        assert d.fpu0 >= d.fpu1 - 1e-6 - mix.fp_div - mix.fp_sqrt
