"""``sample_delta``: the common-node algebra and the rollback error."""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.machine import SP2Machine
from repro.hpm.collector import IntervalCounts, SystemCollector, SystemSample, sample_delta
from repro.power2.counters import FLAT_NAMES, Mode, counter_index, rates_vector
from tests.hpm.interval_totals import interval_totals
from tests.power2.accrual_reference import reference_accrual, served

NODE_IDS = st.lists(st.integers(0, 15), unique=True, max_size=10)


def reference_delta(before: SystemSample, after: SystemSample) -> tuple[int, dict[str, int]]:
    """(n_nodes, totals) summed node by node over the nodes in both."""
    common = sorted(set(before.node_ids) & set(after.node_ids))
    sums = [0] * len(FLAT_NAMES)
    for node in common:
        b = before.matrix[before.node_ids.index(node)]
        a = after.matrix[after.node_ids.index(node)]
        for col in range(len(FLAT_NAMES)):
            sums[col] += int(a[col]) - int(b[col])
    return len(common), {name: v for name, v in zip(FLAT_NAMES, sums) if v}


@settings(max_examples=200, deadline=None)
@given(before_ids=NODE_IDS, after_ids=NODE_IDS, seed=st.integers(0, 2**32 - 1))
def test_random_node_subsets_match_per_node_reference(before_ids, after_ids, seed):
    """Column 0's per-node delta is ``2**node``, so its total names the
    exact set of rows that were paired; the other columns are random."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 1_000_000, size=(16, len(FLAT_NAMES)))
    step = rng.integers(0, 1_000, size=(16, len(FLAT_NAMES)))
    step[:, 0] = 1 << np.arange(16)
    before = SystemSample(
        time=0.0, node_ids=tuple(before_ids), matrix=base[before_ids].reshape(-1, len(FLAT_NAMES))
    )
    after = SystemSample(
        time=900.0,
        node_ids=tuple(after_ids),
        matrix=(base + step)[after_ids].reshape(-1, len(FLAT_NAMES)),
    )
    iv = sample_delta(before, after)
    n_nodes, totals = reference_delta(before, after)
    common = set(before_ids) & set(after_ids)
    assert iv.sums.dtype == np.int64 and iv.sums.shape == (len(FLAT_NAMES),)
    assert iv.sums.tolist() == [totals.get(name, 0) for name in FLAT_NAMES]
    assert interval_totals(iv).get(FLAT_NAMES[0], 0) == sum(1 << n for n in common)
    assert iv.n_nodes == n_nodes
    assert interval_totals(iv) == totals
    assert all(type(v) is int for v in interval_totals(iv).values())
    assert (iv.start, iv.end, iv.interpolated) == (0.0, 900.0, False)


def test_interval_equality_compares_the_row_by_value():
    """``==`` and ``!=`` compare every field, the row by dtype and
    values, as ``JobRecord`` compares its deltas; neither compares the
    row elementwise, as a plain tuple would (and raise)."""
    sums = np.arange(len(FLAT_NAMES), dtype=np.int64) % 3
    iv = IntervalCounts(start=0.0, end=900.0, sums=sums, n_nodes=4)
    assert interval_totals(iv) == {name: v for name, v in zip(FLAT_NAMES, sums.tolist()) if v}
    same = IntervalCounts(start=0.0, end=900.0, sums=sums.copy(), n_nodes=4)
    assert iv == same and not iv != same
    plain = tuple(iv)
    assert iv != plain and plain != iv and not iv == plain and not plain == iv
    bumped = sums.copy()
    bumped[0] += 1
    for other in (
        iv._replace(sums=bumped),
        iv._replace(sums=sums.astype(np.int32)),
        iv._replace(sums=sums.astype(np.float64)),
        iv._replace(interpolated=True),
        iv._replace(n_nodes=3),
        iv._replace(end=1800.0),
    ):
        assert other != iv and iv != other
        assert not other == iv and not iv == other


@pytest.mark.parametrize("backend", ["scalar", "auto"])
def test_counter_rollback_between_passes_fails_in_one_line(backend):
    """A bank reset between two cron passes names the interval end,
    the node, the counter and both readings, on the scalar reference
    and on the store."""
    with reference_accrual() if backend == "scalar" else nullcontext([]) as built:
        machine = SP2Machine(2)
    for node in machine.nodes:
        node.install_rates(0.0, rates_vector({"fxu0": 1e6, "cycles": 3e7}), busy=True)
    collector = SystemCollector(machine)
    collector.collect(0.0)
    collector.collect(900.0)
    fxu0 = counter_index("fxu0")  # user.fxu0: the first flat column
    before = int(collector.last_sample.matrix[1, fxu0])
    machine.node(1).sync(1400.0)
    machine.node(1).monitor.banks[Mode.USER].reset()
    with pytest.raises(ValueError) as err:
        collector.collect(1800.0)
    after = int(machine.read_counters([1], 1800.0)[0, fxu0])
    assert 0 < after < before
    assert str(err.value) == (
        f"interval ending at 1800.0 s: node 1 counter user.fxu0 "
        f"went backwards ({before} -> {after})"
    )
    # The refused pass is not held: the next interval would start at 900 s.
    assert (collector.last_sample.time, len(collector.intervals())) == (900.0, 1)
    assert bool(served(built)) == (backend == "scalar")
