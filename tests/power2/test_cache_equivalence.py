"""The list-per-set cache and TLB walks against their numpy oracle.

Random geometries, address streams with reuse, write masks and flushes:
every access answers the same, and the hit, miss, reload and writeback
counts, the lines a flush writes back and what each set holds stay
identical (``tests/power2/cache_reference.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.power2.config import CacheGeometry, TLBGeometry
from repro.power2.dcache import SetAssociativeCache
from repro.power2.tlb import TLB
from tests.power2.cache_reference import ReferenceCache, ReferenceTLB

ASSOCIATIVITIES = st.sampled_from([1, 2, 3, 4, 8])


@st.composite
def cache_geometries(draw) -> CacheGeometry:
    line = 2 ** draw(st.integers(3, 8))
    assoc = draw(ASSOCIATIVITIES)
    return CacheGeometry(
        total_bytes=line * assoc * draw(st.integers(1, 16)),
        line_bytes=line,
        associativity=assoc,
    )


@st.composite
def tlb_geometries(draw) -> TLBGeometry:
    assoc = draw(ASSOCIATIVITIES)
    return TLBGeometry(
        entries=assoc * draw(st.integers(1, 16)),
        page_bytes=2 ** draw(st.integers(6, 12)),
        associativity=assoc,
    )


#: One step of a walk: a flush, single accesses, or a ``run`` over a
#: stream; addresses are folded into a few capacities' worth of bytes so
#: that sets both hit and overflow.
STEPS = st.tuples(
    st.sampled_from(["flush", "access", "run"]),
    st.lists(st.tuples(st.integers(0, 1 << 20), st.booleans()), max_size=80),
)


@settings(max_examples=200, deadline=None)
@given(geometry=cache_geometries(), steps=st.lists(STEPS, min_size=1, max_size=6))
def test_cache_matches_numpy_oracle(geometry, steps):
    ours, ref = SetAssociativeCache(geometry), ReferenceCache(geometry)
    span = 3 * geometry.total_bytes
    for kind, stream in steps:
        addrs = [a % span for a, _ in stream]
        writes = [w for _, w in stream]
        if kind == "flush":
            assert ours.flush() == ref.flush()
        elif kind == "access":
            for a, w in zip(addrs, writes):
                assert ours.access(a, write=w) is ref.access(a, write=w)
        else:
            ours.run(np.array(addrs, dtype=np.int64), np.array(writes, dtype=bool))
            ref.run(np.array(addrs, dtype=np.int64), np.array(writes, dtype=bool))
        assert ours.stats == ref.stats
        assert [ours.contains(a) for a in addrs] == [ref.contains(a) for a in addrs]
    assert ours.flush() == ref.flush()


@settings(max_examples=200, deadline=None)
@given(geometry=tlb_geometries(), steps=st.lists(STEPS, min_size=1, max_size=6))
def test_tlb_matches_numpy_oracle(geometry, steps):
    ours, ref = TLB(geometry), ReferenceTLB(geometry)
    span = 3 * geometry.entries * geometry.page_bytes
    for kind, stream in steps:
        addrs = [a % span for a, _ in stream]
        if kind == "flush":
            ours.flush()
            ref.flush()
        elif kind == "access":
            for a in addrs:
                assert ours.access(a) is ref.access(a)
        else:
            ours.run(np.array(addrs, dtype=np.int64))
            ref.run(np.array(addrs, dtype=np.int64))
        assert ours.stats == ref.stats


def test_negative_address_is_refused():
    with pytest.raises(ValueError, match="non-negative"):
        SetAssociativeCache().access(-8)
    with pytest.raises(ValueError, match="non-negative"):
        TLB().run(np.array([0, -4096]))
