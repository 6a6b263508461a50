"""Differential equivalence: the scalar reference vs. the counter store.

The counter store (:mod:`repro.power2.batch`) promises *bitwise*
identical accumulators to integrating each node on its own — goldens
and the parallel runner's byte-for-byte merge invariants depend on it.
These property tests drive both implementations (nodes built on the
per-node reference in ``accrual_reference.py``, nodes on a shared
:class:`CounterStore`) through identical random schedules of rate
installs, syncs, crashes/repairs, direct accruals and phase work, and
demand exact float equality at every step.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.machine import SP2Machine
from repro.power2.batch import CounterStore
from repro.power2.config import POWER2_590
from repro.power2.counters import BANK_SIZE, FLAT_NAMES, Mode, rates_vector
from repro.power2.node import Node
from repro.power2.pipeline import CycleModel
from repro.workload.kernels import (
    KERNELS,
    clear_kernel_cache,
    evaluate_kernel,
    kernel,
)

from .accrual_reference import ReferenceStore, reference_accrual, served

#: Both implementations, by test id: the store's contract must hold on
#: the reference too, or the reference could not check it.
IMPLEMENTATIONS = pytest.mark.parametrize(
    "store_cls", [CounterStore, ReferenceStore], ids=["numpy", "scalar"]
)

# ---------------------------------------------------------------------------
# Harness: reference nodes + store-attached nodes
# ---------------------------------------------------------------------------


def make_pair(n_nodes=1):
    """(reference nodes, nodes attached to one shared store, the
    reference stores built)."""
    with reference_accrual() as built:
        scalar = [Node(i) for i in range(n_nodes)]
    store = CounterStore(n_nodes)
    attached = []
    for i in range(n_nodes):
        node = Node(i)
        node.attach_store(store, i)
        attached.append(node)
    return scalar, attached, built


def reference_machine(n_nodes):
    """(an SP2Machine built on the reference, the reference stores built)."""
    with reference_accrual() as built:
        machine = SP2Machine(n_nodes)
    assert isinstance(machine.store, ReferenceStore)
    return machine, built


def assert_bitwise_equal(reference: Node, *others: Node):
    """Exact accumulator/clock equality across implementations."""
    ref_user = np.asarray(reference.monitor.banks[Mode.USER].raw_vector())
    ref_sys = np.asarray(reference.monitor.banks[Mode.SYSTEM].raw_vector())
    for other in others:
        got_user = np.asarray(other.monitor.banks[Mode.USER].raw_vector())
        got_sys = np.asarray(other.monitor.banks[Mode.SYSTEM].raw_vector())
        # tobytes comparison is bit-exact (catches ±0.0 drift that == hides)
        assert ref_user.tobytes() == got_user.tobytes()
        assert ref_sys.tobytes() == got_sys.tobytes()
        assert reference.wall_seconds == other.wall_seconds
        assert reference.busy_seconds == other.busy_seconds
        assert reference.monitor.flat_snapshot() == other.monitor.flat_snapshot()
        ref_vec = reference.monitor.snapshot_vector()
        got_vec = np.asarray(other.monitor.snapshot_vector())
        assert np.array_equal(ref_vec, got_vec)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

rate_values = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
bank_rates = st.lists(rate_values, min_size=BANK_SIZE, max_size=BANK_SIZE)
deltas = st.floats(min_value=0.0, max_value=1e5, allow_nan=False)

# One schedule step: advance time by dt, then perform an action.
steps = st.lists(
    st.tuples(
        deltas,
        st.sampled_from(["sync", "install", "idle", "halt", "resume", "accrue"]),
        bank_rates,
        bank_rates,
        st.booleans(),
    ),
    min_size=1,
    max_size=12,
)


def apply_step(node: Node, now: float, action: str, user, system, busy):
    if action == "sync":
        node.sync(now)
    elif action == "install":
        node.install_rates(now, np.asarray(user), np.asarray(system), busy=busy)
    elif action == "idle":
        node.install_rates(now)
    elif action == "halt":
        node.halt(now)
    elif action == "resume":
        node.resume(now)
    elif action == "accrue":
        node.monitor.accrue_raw({"fxu0": user[0], "cycles": user[4]}, Mode.SYSTEM)
        node.monitor.accrue_dma(reads=system[0], writes=system[1])


class TestScheduleEquivalence:
    @given(steps)
    @settings(max_examples=120, deadline=None)
    def test_random_schedules_bitwise_identical(self, schedule):
        """Any interleaving of installs/syncs/crashes accrues identically."""
        (scalar,), (attached,), built = make_pair(1)
        now = 0.0
        for dt, action, user, system, busy in schedule:
            now += dt
            for node in (scalar, attached):
                apply_step(node, now, action, user, system, busy)
            assert_bitwise_equal(scalar, attached)
        assert served(built)

    @given(bank_rates, st.lists(deltas, min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_interval_partitions_identical(self, rates, dts):
        """The *same* sync schedule accrues identically on both.

        (Different partitions of the same span are NOT bitwise equal —
        float addition doesn't distribute — which is exactly why the
        batched collector must skip unreachable nodes rather than sync
        them late; see test_masked_multi_node_sweeps and the collector
        regression tests in tests/hpm.)
        """
        (scalar,), (attached,), built = make_pair(1)
        vec = np.asarray(rates)
        now = 0.0
        for node in (scalar, attached):
            node.install_rates(0.0, vec, busy=True)
        for dt in dts:
            now += dt
            for node in (scalar, attached):
                node.sync(now)
            assert_bitwise_equal(scalar, attached)
        assert served(built)

    @given(
        st.lists(bank_rates, min_size=2, max_size=4),
        st.lists(
            st.tuples(deltas, st.lists(st.booleans(), min_size=2, max_size=4)),
            min_size=1,
            max_size=10,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_masked_multi_node_sweeps(self, per_node_rates, passes):
        """store.sync_slots over a random availability mask == per-node
        reference syncs of exactly the available nodes (fault schedules)."""
        n = len(per_node_rates)
        scalar, attached, built = make_pair(n)
        store = attached[0]._store
        for i, rates in enumerate(per_node_rates):
            vec = np.asarray(rates)
            for group in (scalar, attached):
                group[i].install_rates(0.0, vec, busy=True)
        now = 0.0
        for dt, mask in passes:
            now += dt
            up = [i for i in range(n) if mask[i % len(mask)]]
            for i in up:
                scalar[i].sync(now)
            store.sync_slots(up, now)
            matrix = store.snapshot_matrix(up)
            for row, i in enumerate(up):
                ref = scalar[i].monitor.snapshot_vector()
                assert np.array_equal(ref, matrix[row])
            for i in range(n):
                assert_bitwise_equal(scalar[i], attached[i])
        assert served(built)


def last_sync(node: Node) -> float:
    return node._store.last_sync(node._slot)


def slot_state(node: Node) -> bytes:
    """A node's accumulators and clocks, bit for bit."""
    banks = node.monitor.banks
    return b"".join(
        (
            np.asarray(banks[Mode.USER].raw_vector()).tobytes(),
            np.asarray(banks[Mode.SYSTEM].raw_vector()).tobytes(),
            np.array([node.wall_seconds, node.busy_seconds, last_sync(node)]).tobytes(),
        )
    )


#: Subsets ``sync_slots`` takes a different path for: exactly half the
#: store and all but one slot (the whole-store multiply-add, unlisted
#: slots stepping by dt = 0), one slot and any subset (a row gather
#: below half the store).
SUBSET_KINDS = ("half", "all-but-one", "single", "any")


def draw_subset(data, n: int, kind: str) -> list[int]:
    order = data.draw(st.permutations(range(n)), label="order")
    size = {
        "half": n // 2,
        "all-but-one": n - 1,
        "single": 1,
        "any": data.draw(st.integers(min_value=1, max_value=n), label="size"),
    }[kind]
    return list(order[:size])


class TestSubsetSweeps:
    """``CounterStore.sync_slots`` over a subset of the slots equals
    syncing exactly the listed nodes on the per-node reference, whichever
    path the subset's size takes, and leaves every unlisted slot's
    accumulators and ``last_sync`` as they were."""

    @staticmethod
    def check_pass(store, scalar, attached, subset, now):
        unlisted = [i for i in range(len(attached)) if i not in subset]
        before = {i: slot_state(attached[i]) for i in unlisted}
        for i in subset:
            scalar[i].sync(now)
        store.sync_slots(subset, now)
        for i in unlisted:
            assert slot_state(attached[i]) == before[i], f"unlisted slot {i} moved"
        for ref, node in zip(scalar, attached):
            assert_bitwise_equal(ref, node)
            assert last_sync(ref) == last_sync(node)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_subsets_match_the_reference(self, data):
        n = data.draw(st.integers(min_value=2, max_value=9), label="slots")
        per_node_rates = data.draw(st.lists(bank_rates, min_size=n, max_size=n), label="rates")
        halted = data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="halted")
        scalar, attached, built = make_pair(n)
        store = attached[0]._store
        for i, rates in enumerate(per_node_rates):
            for group in (scalar, attached):
                group[i].install_rates(0.0, np.asarray(rates), busy=True)
                if halted[i]:
                    group[i].halt(0.0)
        now = 0.0
        for _ in range(data.draw(st.integers(min_value=1, max_value=6), label="passes")):
            now += data.draw(deltas, label="dt")
            kind = data.draw(st.sampled_from(SUBSET_KINDS), label="kind")
            self.check_pass(store, scalar, attached, draw_subset(data, n, kind), now)
        assert served(built)

    @pytest.mark.parametrize("size", [72, 143, 1, 71])
    def test_paper_machine_subsets(self, size):
        """A 144-slot store at both sides of the half-store line (72
        and 143 listed sweep the whole store, 71 and 1 gather), with
        every fifth slot halted and the listed set moving each pass."""
        n = 144
        scalar, attached, built = make_pair(n)
        store = attached[0]._store
        for i in range(n):
            rates = rates_vector({"fxu0": 1e6 / (i + 3), "cycles": 6.65e7 / 3.0})
            for group in (scalar, attached):
                group[i].install_rates(0.0, rates, busy=bool(i % 2))
                if i % 5 == 0:
                    group[i].halt(0.0)
        for k in range(4):
            subset = [(i * 7 + k) % n for i in range(size)]
            self.check_pass(store, scalar, attached, subset, 900.0 * (k + 1) / 3.0)
        assert served(built)


# One machine-level step: advance time by dt, then act on a random
# ordered subset of nodes ("read" is SP2Machine.read_counters).
MACHINE_NODES = 5
node_subsets = st.lists(
    st.integers(min_value=0, max_value=MACHINE_NODES - 1), unique=True, max_size=MACHINE_NODES
)
machine_steps = st.lists(
    st.tuples(
        deltas,
        st.sampled_from(["read", "sync", "install", "idle", "halt", "resume"]),
        node_subsets,
        bank_rates,
        bank_rates,
        st.booleans(),
    ),
    min_size=1,
    max_size=14,
)


class TestReadCounters:
    """``SP2Machine.read_counters`` — the one read behind the collector
    and the PBS prologue/epilogue — on the reference and on the store."""

    @given(machine_steps)
    @settings(max_examples=100, deadline=None)
    def test_random_schedules_read_identical_matrices(self, schedule):
        """Any schedule of installs, syncs, crashes/repairs and reads on
        random node subsets reads bitwise-equal int64 matrices, and
        leaves equal wall and busy seconds, on both."""
        reference, built = reference_machine(MACHINE_NODES)
        machines = [reference, SP2Machine(MACHINE_NODES)]
        assert isinstance(machines[1].store, CounterStore)
        now = 0.0
        for dt, action, subset, user, system, busy in schedule:
            now += dt
            reads = []
            for machine in machines:
                if action == "read":
                    reads.append(machine.read_counters(subset, now))
                else:
                    for i in subset:
                        apply_step(machine.nodes[i], now, action, user, system, busy)
            for matrix in reads:
                assert matrix.dtype == np.int64
                assert matrix.shape == (len(subset), len(FLAT_NAMES))
            if reads:
                assert reads[0].tobytes() == reads[1].tobytes()
            for a, b in zip(*(m.nodes for m in machines)):
                assert a.wall_seconds == b.wall_seconds
                assert a.busy_seconds == b.busy_seconds
        everyone = list(range(MACHINE_NODES))
        final = [m.read_counters(everyone, now) for m in machines]
        assert final[0].tobytes() == final[1].tobytes()
        for a, b in zip(*(m.nodes for m in machines)):
            assert_bitwise_equal(a, b)
        assert served(built)

    @given(machine_steps)
    @settings(max_examples=40, deadline=None)
    def test_read_is_sync_then_snapshot(self, schedule):
        """A read equals syncing each named node and stacking its
        snapshot vector, and it leaves unnamed nodes untouched, on the
        reference and on the store."""
        builds = (lambda: reference_machine(MACHINE_NODES)[0], lambda: SP2Machine(MACHINE_NODES))
        for build in builds:
            reader, reference = build(), build()
            now = 0.0
            for dt, action, subset, user, system, busy in schedule:
                now += dt
                if action != "read":
                    for machine in (reader, reference):
                        for i in subset:
                            apply_step(machine.nodes[i], now, action, user, system, busy)
                    continue
                matrix = reader.read_counters(subset, now)
                expected = np.zeros((len(subset), len(FLAT_NAMES)), dtype=np.int64)
                for row, i in enumerate(subset):
                    reference.nodes[i].sync(now)
                    expected[row] = reference.nodes[i].monitor.snapshot_vector()
                assert matrix.tobytes() == expected.tobytes()
                for a, b in zip(reader.nodes, reference.nodes):
                    assert_bitwise_equal(a, b)

    def test_every_node_in_order_reads_the_whole_store(self, monkeypatch):
        """A read of every node in node order (the cron pass when every
        daemon answers) asks the store for all its rows, with no slot
        list, on the store and on the reference, and equals reading the
        same nodes through a gather."""
        asked = []
        for cls in (CounterStore, ReferenceStore):
            real = cls.snapshot_matrix

            def spy(store, *args, real=real):
                asked.append(args)
                return real(store, *args)

            monkeypatch.setattr(cls, "snapshot_matrix", spy)
        everyone = tuple(range(MACHINE_NODES))
        for machine in (reference_machine(MACHINE_NODES)[0], SP2Machine(MACHINE_NODES)):
            for node in machine.nodes:
                node.install_rates(0.0, rates_vector({"fxu0": 1e6, "cycles": 3e7}), busy=True)
            asked.clear()
            whole = machine.read_counters(everyone, 900.0)
            assert asked == [()]
            gathered = machine.read_counters(everyone[::-1], 900.0)[::-1]
            assert len(asked) == 2 and len(asked[1][0]) == MACHINE_NODES
            assert whole.dtype == np.int64 and whole.tobytes() == gathered.tobytes()
            assert whole[:, FLAT_NAMES.index("user.fxu0")].tolist() == [900_000_000] * MACHINE_NODES

    def test_empty_read(self):
        for machine in (reference_machine(3)[0], SP2Machine(3)):
            matrix = machine.read_counters([], 10.0)
            assert matrix.shape == (0, len(FLAT_NAMES)) and matrix.dtype == np.int64


class TestKernelMemoization:
    @given(
        st.sampled_from(sorted(KERNELS)),
        st.floats(min_value=1.0, max_value=1e12, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_memoized_evaluation_identical_to_direct(self, name, flops):
        """evaluate_kernel returns exactly what the uncached model does,
        over random instruction mixes (kernel × flop count)."""
        spec = kernel(name)
        clear_kernel_cache()
        cached = evaluate_kernel(spec, flops, POWER2_590)
        model = CycleModel(POWER2_590)
        direct = model.execute(
            spec.mix_for_flops(flops), spec.memory_behaviour(POWER2_590), spec.deps
        )
        assert cached == direct
        # Second call: same frozen object, no recomputation.
        assert evaluate_kernel(spec, flops, POWER2_590) is cached

    def test_jittered_specs_cache_separately(self):
        spec = kernel("cfd_multiblock")
        other = spec.with_(fma_flop_fraction=spec.fma_flop_fraction + 0.01)
        clear_kernel_cache()
        a = evaluate_kernel(spec, 1e9, POWER2_590)
        b = evaluate_kernel(other, 1e9, POWER2_590)
        assert a != b
        assert evaluate_kernel.cache_info().currsize == 2


def node_on(store_cls) -> Node:
    """A bare node moved onto a fresh one-slot store of ``store_cls``."""
    node = Node(0)
    node.attach_store(store_cls(1), 0)
    return node


class TestStoreSemantics:
    @IMPLEMENTATIONS
    def test_backwards_sync_rejected(self, store_cls):
        store = store_cls(2)
        store.configure_slot(0, [0.0] * BANK_SIZE)
        store.sync_one(0, 100.0)
        with pytest.raises(ValueError):
            store.sync_one(0, 50.0)
        with pytest.raises(ValueError):
            store.sync_slots([0], 50.0)

    @IMPLEMENTATIONS
    def test_backwards_full_sweep_rejected(self, store_cls):
        """A sweep of every slot refuses to run backwards and moves no
        clock; one behind by float noise (under 1e-9 s) accrues nothing
        and moves every clock to ``now``."""
        store = store_cls(2)
        for slot in (0, 1):
            store.configure_slot(slot, [1e6] * BANK_SIZE)
        store.sync_slots([0, 1], 100.0)
        before = store.snapshot_matrix()
        with pytest.raises(ValueError, match="^sync cannot run backwards"):
            store.sync_slots([0, 1], 50.0)
        assert store.last_sync(0) == store.last_sync(1) == 100.0
        store.sync_slots([0, 1], 100.0 - 1e-10)
        assert np.array_equal(store.snapshot_matrix(), before)
        assert store.last_sync(0) == store.last_sync(1) == 100.0 - 1e-10
        assert store.wall(0) == store.wall(1) == 100.0

    @IMPLEMENTATIONS
    def test_halted_slot_keeps_its_wall_clock(self, store_cls):
        """A crash zeroes a slot's counter rates and its busy time stops;
        its wall seconds keep counting."""
        store = store_cls(1)
        store.configure_slot(0, [1e6] * BANK_SIZE)
        store.install(0, [1e6] * BANK_SIZE, None, busy=True)
        store.sync_slots([0], 10.0)
        store.halt(0)
        frozen = store.snapshot_matrix()
        store.sync_slots([0], 25.0)
        assert np.array_equal(store.snapshot_matrix(), frozen)
        assert (store.wall(0), store.busy(0)) == (25.0, 10.0)

    @IMPLEMENTATIONS
    def test_negative_accrual_rejected(self, store_cls):
        store = store_cls(1)
        store.configure_slot(0, [0.0] * BANK_SIZE)
        with pytest.raises(ValueError):
            store.add(0, Mode.USER, "fpu0", -1.0)

    @IMPLEMENTATIONS
    def test_broken_divide_counters_read_zero(self, store_cls):
        node = node_on(store_cls)
        node.install_rates(0.0, rates_vector({"fpu0_fp_div": 1e6, "fpu0": 1e6}))
        node.sync(100.0)
        assert node.monitor.banks[Mode.USER].read("fpu0_fp_div") == 0
        assert node.monitor.banks[Mode.USER].raw("fpu0_fp_div") == 1e8
        assert node.monitor.banks[Mode.USER].read("fpu0") == 10**8

    @IMPLEMENTATIONS
    def test_zero_length_interval_is_bitwise_noop(self, store_cls):
        """Syncing twice at the same instant must not perturb a single
        bit (the store's sweep applies dt=0 unconditionally where the
        reference early-returns; ``x + rate*0.0`` is the identity for
        the non-negative accumulators)."""
        node = node_on(store_cls)
        node.install_rates(0.0, rates_vector({"fpu0": 1.0 / 3.0}), busy=True)
        node.sync(123.456)
        before = bytes(
            np.asarray(node.monitor.banks[Mode.USER].raw_vector()).tobytes()
        )
        wall = node.wall_seconds
        node.sync(123.456)
        node._store.sync_slots([0], 123.456)
        after = bytes(np.asarray(node.monitor.banks[Mode.USER].raw_vector()).tobytes())
        assert after == before
        assert node.wall_seconds == wall

    @IMPLEMENTATIONS
    def test_hardware_read_wraps_32bit_like_scalar(self, store_cls):
        """Counter saturation: the physical registers are 32-bit and the
        hardware view must wrap exactly like the scalar reference's."""
        scalar = node_on(ReferenceStore)
        attached = node_on(store_cls)
        vec = rates_vector({"cycles": 66.7e6, "fpu0": 1e6})
        for n in (scalar, attached):
            n.install_rates(0.0, vec, busy=True)
            n.sync(100.0)  # cycles accrue 6.67e9 > 2**32: wraps
        ref = scalar.monitor.banks[Mode.USER]
        got = attached.monitor.banks[Mode.USER]
        assert ref.raw("cycles") > 2**32
        assert ref.hardware_read("cycles") == got.hardware_read("cycles")
        assert got.hardware_read("cycles") == int(got.raw("cycles")) % 2**32
        assert got.read("cycles") == int(ref.raw("cycles"))
        assert ref.hardware_read("fpu0") == got.hardware_read("fpu0")

    def test_attach_requires_pristine_node(self):
        node = Node(0)
        node.sync(10.0)
        with pytest.raises(RuntimeError):
            node.attach_store(CounterStore(1), 0)

    @IMPLEMENTATIONS
    def test_counter_freeze_across_crash(self, store_cls):
        """halt/resume freezes counters, exactly like the scalar
        reference node."""
        scalar = node_on(ReferenceStore)
        attached = node_on(store_cls)
        vec = rates_vector({"fpu0_fp_add": 1e6, "cycles": 3e7})
        for n in (scalar, attached):
            n.install_rates(0.0, vec, busy=True)
            n.sync(50.0)
            n.halt(60.0)
            frozen = n.monitor.snapshot_vector()
            n.sync(200.0)  # outage: frozen
            assert np.array_equal(n.monitor.snapshot_vector(), frozen)
            n.resume(250.0)
            n.sync(300.0)  # idle background only
        assert attached.busy_seconds == 60.0
        assert_bitwise_equal(scalar, attached)
