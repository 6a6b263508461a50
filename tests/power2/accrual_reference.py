"""The per-node reference integrator: the differential oracle for
:class:`~repro.power2.batch.CounterStore`.

Each node integrates its own counters here, one node at a time: two
22-wide float banks, the rate vectors installed at its last event, a
last-sync clock and wall/busy totals.  :class:`ReferenceStore` offers
the part of the ``CounterStore`` interface that nodes, machines and the
monitor views use, but keeps every slot as an independent
:class:`ReferenceNode` and shares no code with the store.

:func:`reference_accrual` swaps it in by rebinding the ``CounterStore``
name that :mod:`repro.power2.node` and :mod:`repro.cluster.machine`
build stores through; ``repro`` has no option for it.  While the swap
is active the store's sweep and gather raise, so whatever is built in
the block reads only through the reference.  It runs in-process: a
worker pool's processes would not see the swap.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

import repro.cluster.machine
import repro.power2.node
from repro.power2.batch import CounterStore
from repro.power2.counters import (
    BANK_SIZE,
    BROKEN_COUNTERS,
    BROKEN_INDICES,
    COUNTER_MODULUS,
    COUNTER_NAMES,
    FLAT_NAMES,
    Mode,
    counter_index,
)


class ReferenceBank:
    """One mode's 22 counters as a float vector."""

    def __init__(self) -> None:
        self.values = np.zeros(BANK_SIZE, dtype=np.float64)

    def add(self, name: str, amount: float) -> None:
        if amount < 0:
            raise ValueError(f"cannot decrement counter {name} by {amount}")
        self.values[counter_index(name)] += amount

    def add_vector(self, vec) -> None:
        vec = np.asarray(vec)
        if vec.shape != self.values.shape:
            raise ValueError(f"expected shape {self.values.shape}, got {vec.shape}")
        self.values += vec

    def read(self, name: str) -> int:
        if name in BROKEN_COUNTERS:
            return 0
        return int(self.values[counter_index(name)])

    def snapshot_vector(self) -> np.ndarray:
        out = self.values.astype(np.int64)
        out[list(BROKEN_INDICES)] = 0
        return out


class ReferenceNode:
    """One node's counters, integrated lazily between rate installs."""

    def __init__(self, background) -> None:
        self.banks = {Mode.USER: ReferenceBank(), Mode.SYSTEM: ReferenceBank()}
        self.background = np.array(background, dtype=float)
        self.user_rates: np.ndarray | None = None
        self.system_rates = self.background
        self.busy_flag = False
        self.last_sync = 0.0
        self.wall = 0.0
        self.busy = 0.0

    def install(self, user, system, busy: bool) -> None:
        self.user_rates = (
            np.zeros(BANK_SIZE) if user is None else np.array(user, dtype=float)
        )
        self.system_rates = (
            self.background if system is None else np.array(system, dtype=float)
        )
        self.busy_flag = busy

    def sync(self, now: float) -> None:
        last = self.last_sync
        if now < last - 1e-9:
            raise ValueError(f"sync cannot run backwards ({now} < {last})")
        dt = max(0.0, now - last)
        self.last_sync = now
        if dt == 0.0:
            return
        if self.user_rates is None:
            # Never had rates installed: idle background only.
            self.banks[Mode.SYSTEM].add_vector(self.background * dt)
        else:
            self.banks[Mode.USER].add_vector(self.user_rates * dt)
            self.banks[Mode.SYSTEM].add_vector(self.system_rates * dt)
        if self.busy_flag:
            self.busy += dt
        self.wall += dt

    def snapshot_vector(self) -> np.ndarray:
        return np.concatenate(
            [self.banks[Mode.USER].snapshot_vector(), self.banks[Mode.SYSTEM].snapshot_vector()]
        )


class ReferenceStore:
    """``CounterStore``'s interface over independent per-node integrators.

    ``reads`` counts the counter reads it has served.
    """

    def __init__(self, n_slots: int) -> None:
        if n_slots <= 0:
            raise ValueError("store needs at least one slot")
        self.n_slots = n_slots
        self._nodes = [ReferenceNode(np.zeros(BANK_SIZE)) for _ in range(n_slots)]
        self.reads = 0

    # -- slot lifecycle -------------------------------------------------
    def configure_slot(self, slot: int, background) -> None:
        self._nodes[slot] = ReferenceNode(background)

    def install(self, slots, user, system, *, busy: bool) -> None:
        """One slot, or each slot of an index array, in turn."""
        for slot in np.atleast_1d(slots).tolist():
            self._nodes[slot].install(user, system, busy)

    def halt(self, slot: int) -> None:
        self._nodes[slot].install(np.zeros(BANK_SIZE), np.zeros(BANK_SIZE), False)

    # -- time integration: one node at a time ---------------------------
    def sync_one(self, slot: int, now: float) -> None:
        self._nodes[slot].sync(now)

    def sync_slots(self, slots, now: float) -> None:
        for slot in slots:
            self._nodes[slot].sync(now)

    # -- direct accrual -------------------------------------------------
    def add(self, slot: int, mode: Mode, name: str, amount: float) -> None:
        self._nodes[slot].banks[mode].add(name, amount)

    def add_many(self, slot: int, mode: Mode, amounts) -> None:
        for name, amount in amounts.items():
            self.add(slot, mode, name, amount)

    def add_vector(self, slot: int, mode: Mode, vec) -> None:
        self._nodes[slot].banks[mode].add_vector(vec)

    def reset_bank(self, slot: int, mode: Mode) -> None:
        self._nodes[slot].banks[mode].values[:] = 0.0

    # -- reads (counted) ------------------------------------------------
    def _bank(self, slot: int, mode: Mode) -> ReferenceBank:
        self.reads += 1
        return self._nodes[slot].banks[mode]

    def raw(self, slot: int, mode: Mode, name: str) -> float:
        return float(self._bank(slot, mode).values[counter_index(name)])

    def raw_vector(self, slot: int, mode: Mode) -> np.ndarray:
        return self._bank(slot, mode).values.copy()

    def read(self, slot: int, mode: Mode, name: str) -> int:
        return self._bank(slot, mode).read(name)

    def hardware_read(self, slot: int, mode: Mode, name: str) -> int:
        return self._bank(slot, mode).read(name) % COUNTER_MODULUS

    def bank_snapshot(self, slot: int, mode: Mode) -> dict[str, int]:
        bank = self._bank(slot, mode)
        return {name: bank.read(name) for name in COUNTER_NAMES}

    def snapshot_vector(self, slot: int) -> np.ndarray:
        self.reads += 1
        return self._nodes[slot].snapshot_vector()

    def flat_snapshot(self, slot: int) -> dict[str, int]:
        return dict(zip(FLAT_NAMES, self.snapshot_vector(slot).tolist()))

    def snapshot_matrix(self, slots=None) -> np.ndarray:
        if slots is None:
            slots = range(self.n_slots)
        rows = [self.snapshot_vector(slot) for slot in slots]
        return np.array(rows, dtype=np.int64).reshape(len(rows), len(FLAT_NAMES))

    # -- per-slot clocks ------------------------------------------------
    def wall(self, slot: int) -> float:
        return self._nodes[slot].wall

    def set_wall(self, slot: int, value: float) -> None:
        self._nodes[slot].wall = value

    def busy(self, slot: int) -> float:
        return self._nodes[slot].busy

    def set_busy(self, slot: int, value: float) -> None:
        self._nodes[slot].busy = value

    def last_sync(self, slot: int) -> float:
        return self._nodes[slot].last_sync


@contextlib.contextmanager
def reference_accrual():
    """Build every node and machine in the block on :class:`ReferenceStore`.

    Yields the list of reference stores built.  Objects keep their store
    after the block exits; pass the list to :func:`served` to check that
    the reference answered the reads.
    """
    built: list[ReferenceStore] = []

    def build(n_slots: int) -> ReferenceStore:
        store = ReferenceStore(n_slots)
        built.append(store)
        return store

    def unreachable(*args, **kwargs):
        raise AssertionError("a reference-accrual run read through CounterStore")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repro.power2.node, "CounterStore", build)
        mp.setattr(repro.cluster.machine, "CounterStore", build)
        mp.setattr(CounterStore, "sync_slots", unreachable)
        mp.setattr(CounterStore, "snapshot_matrix", unreachable)
        yield built


def served(built: list[ReferenceStore]) -> int:
    """Counter reads the stores in ``built`` answered."""
    return sum(store.reads for store in built)
