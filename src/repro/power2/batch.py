"""Every node's hardware counters, in one store.

A 270-day campaign integrates 44 counters on 144 nodes across ~26k
collector passes plus every job start/stop.  :class:`CounterStore`
keeps every node's accumulators as one ``(n, 46)`` float64 matrix: the
44 counters, then wall seconds and busy seconds, whose rates are 1.0
and the node's busy flag.  A collector pass is then a single
``acc += rates * dt`` multiply-add over the nodes it reads.  A node is
one slot; :class:`StoreBankView` and :class:`StoreMonitor` are the
per-node bank and monitor API over it.

**Bitwise reproducibility.** A sweep produces exactly what integrating
each node on its own would, not merely something close, so goldens and
the parallel runner's byte-for-byte merge invariants hold, and the
per-node reference integrator in ``tests/power2/accrual_reference.py``
agrees with the store bit for bit.  That is not luck; it follows from
three IEEE-754 facts the implementation is built around:

1. numpy elementwise double arithmetic and Python float arithmetic are
   the same IEEE-754 binary64 operations — batching rows never
   reassociates the per-element ``value += rate*dt``;
2. ``x + rate*0.0`` is a bitwise no-op for the non-negative accumulators
   used here, so a sweep may apply a zero ``dt`` unconditionally where
   a per-node sync early-returns;
3. ``int(float)`` and an int64 cast truncate toward zero identically,
   so dict snapshots and vector snapshots quantize the same way.

Wall and busy seconds ride the same multiply-add: ``1.0 * dt`` is
exactly ``dt``, and an idle node's ``0.0 * dt`` busy step is fact 2.

The one *semantic* hazard is unreachable nodes: a collector never syncs
a node whose daemon is down (``rate*dt1 + rate*dt2`` is not bitwise
``rate*(dt1+dt2)``), so a sweep must mask down nodes out entirely —
their clocks must not advance.  A sweep over most of the store (a pass
with a few nodes down, a wide job's start or end) masks them by time,
not by index: every slot takes the multiply-add, an unlisted slot with
``dt = 0`` (fact 2 again, so its accumulators keep their bits) and its
``last_sync`` left as it was.  A small subset gathers its own rows
instead, which is cheaper there.  See :meth:`CounterStore.sync_slots`
and the regression tests in ``tests/hpm/`` and ``tests/power2/``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.power2.counters import (
    BANK_SIZE,
    BROKEN_COUNTERS,
    BROKEN_INDICES,
    COUNTER_NAMES,
    COUNTER_MODULUS,
    FLAT_NAMES,
    Mode,
    counter_index,
    execution_event_counts,
)

#: Width of one node's flat counter row (user bank then system bank).
ROW_SIZE = 2 * BANK_SIZE

#: Accumulator columns after the counters: wall seconds (rate 1.0) and
#: busy seconds (rate = the busy flag).
WALL = ROW_SIZE
BUSY = ROW_SIZE + 1

#: Flat row positions the hardware bug zeroes (both banks).
_BROKEN_FLAT = np.array(BROKEN_INDICES + tuple(i + BANK_SIZE for i in BROKEN_INDICES))

#: Sentinel rate vector for a halted node (counters frozen).
_ZERO_BANK = (0.0,) * BANK_SIZE


class CounterStore:
    """Every node's counters, wall and busy seconds as one matrix.

    One *slot* holds one :class:`~repro.power2.node.Node`'s counter
    state: a 46-wide accumulator row (user bank then system bank in
    :data:`FLAT_NAMES` order, then wall and busy seconds), the matching
    rate row (1.0 for wall, the busy flag for busy), the node's idle
    background system rates and the last-sync timestamp.  A collector
    pass is one multiply-add into preallocated buffers.
    """

    def __init__(self, n_slots: int) -> None:
        if n_slots <= 0:
            raise ValueError("store needs at least one slot")
        self.n_slots = n_slots
        self._acc = np.zeros((n_slots, ROW_SIZE + 2), dtype=np.float64)
        self._rates = np.zeros((n_slots, ROW_SIZE + 2), dtype=np.float64)
        self._rates[:, WALL] = 1.0
        #: The 44 counter columns of :attr:`_acc` (a view).
        self._values = self._acc[:, :ROW_SIZE]
        self._background = np.zeros((n_slots, BANK_SIZE), dtype=np.float64)
        self._last_sync = np.zeros(n_slots, dtype=np.float64)
        # Full-sweep scratch: each slot's dt, as a column, and rates × dt.
        self._dt = np.zeros(n_slots, dtype=np.float64)
        self._dt_column = self._dt[:, None]
        self._step = np.zeros_like(self._acc)

    # -- slot lifecycle -------------------------------------------------
    def configure_slot(self, slot: int, background: Sequence[float]) -> None:
        """Reset a slot and install its idle background system rates."""
        self._acc[slot] = 0.0
        self._rates[slot, :BANK_SIZE] = 0.0
        self._background[slot] = background
        self._rates[slot, BANK_SIZE:ROW_SIZE] = self._background[slot]
        self._rates[slot, BUSY] = 0.0
        self._last_sync[slot] = 0.0

    def install(
        self,
        slots: int | np.ndarray,
        user: Sequence[float] | None,
        system: Sequence[float] | None,
        *,
        busy: bool,
    ) -> None:
        """Give one slot, or every slot of an index array, the same rate
        rows (``None`` user = zeros, ``None`` system = each slot's own
        background).  Callers sync first: a node syncs its slot
        (:meth:`~repro.power2.node.Node.install_rates`), and a job
        transition's counter read has just synced the job's slots."""
        rates = self._rates
        rates[slots, :BANK_SIZE] = 0.0 if user is None else user
        rates[slots, BANK_SIZE:ROW_SIZE] = self._background[slots] if system is None else system
        rates[slots, BUSY] = 1.0 if busy else 0.0

    def halt(self, slot: int) -> None:
        """Freeze a slot's counters (crash): all counter rates to zero.
        Its wall clock keeps running."""
        self.install(slot, _ZERO_BANK, _ZERO_BANK, busy=False)

    # -- time integration ----------------------------------------------
    def sync_one(self, slot: int, now: float) -> None:
        last = float(self._last_sync[slot])
        if now < last - 1e-9:
            raise ValueError(f"sync cannot run backwards ({now} < {last})")
        dt = max(0.0, now - last)
        self._last_sync[slot] = now
        if dt == 0.0:
            return
        self._acc[slot] += self._rates[slot] * dt

    def sync_slots(self, slots: Sequence[int], now: float) -> None:
        """Integrate a *subset* of slots up to ``now`` in one sweep.

        Slots not listed are untouched — neither their accumulators nor
        their clocks move.  That is load-bearing for unreachable nodes:
        advancing a down node's clock in two steps instead of one would
        change its accumulators bitwise relative to one catch-up sync.
        A subset of at least half the slots is one multiply-add over the
        whole store with ``dt = 0`` for the unlisted slots; a smaller one
        gathers its rows.
        """
        if not len(slots):
            return
        last = self._last_sync
        dt = self._dt
        if len(slots) == self.n_slots:
            # Full sweep: no index gather.
            np.subtract(now, last, out=dt)
            shortest = dt.min()
            if shortest < 0.0:
                if shortest < -1e-9:
                    raise ValueError(f"sync cannot run backwards (now={now})")
                np.maximum(0.0, dt, out=dt)  # float noise, as sync_one clamps it
            last.fill(now)
        else:
            idx = np.asarray(slots, dtype=np.intp)
            before = last[idx]
            if now < before.max() - 1e-9:
                raise ValueError(f"sync cannot run backwards (now={now})")
            step = np.maximum(0.0, now - before)
            last[idx] = now
            if 2 * len(idx) < self.n_slots:
                # A few slots: gather their rows, step them, scatter back.
                self._acc[idx] += self._rates[idx] * step[:, None]
                return
            # Half the store or more (a faulted pass, a wide job): the
            # whole-store multiply-add beats the row gather, and every
            # unlisted slot steps by dt = 0, a bitwise no-op (fact 2).
            dt.fill(0.0)
            dt[idx] = step
        np.multiply(self._rates, self._dt_column, out=self._step)
        self._acc += self._step

    # -- direct accrual (phase-execution path) --------------------------
    def add(self, slot: int, mode: Mode, name: str, amount: float) -> None:
        if amount < 0:
            raise ValueError(f"cannot decrement counter {name} by {amount}")
        self._values[slot, self._flat_index(mode, name)] += amount

    def add_many(self, slot: int, mode: Mode, amounts: Mapping[str, float]) -> None:
        for name, amount in amounts.items():
            self.add(slot, mode, name, amount)

    def add_vector(self, slot: int, mode: Mode, vec) -> None:
        vec = np.asarray(vec)
        if vec.shape != (BANK_SIZE,):
            raise ValueError(f"expected shape ({BANK_SIZE},), got {vec.shape}")
        off = 0 if mode is Mode.USER else BANK_SIZE
        self._values[slot, off : off + BANK_SIZE] += vec

    @staticmethod
    def _flat_index(mode: Mode, name: str) -> int:
        off = 0 if mode is Mode.USER else BANK_SIZE
        return off + counter_index(name)

    # -- reads ----------------------------------------------------------
    def value_at(self, slot: int, flat_index: int) -> float:
        return float(self._values[slot, flat_index])

    def raw(self, slot: int, mode: Mode, name: str) -> float:
        return self.value_at(slot, self._flat_index(mode, name))

    def raw_vector(self, slot: int, mode: Mode):
        off = 0 if mode is Mode.USER else BANK_SIZE
        return self._values[slot, off : off + BANK_SIZE].copy()

    def read(self, slot: int, mode: Mode, name: str) -> int:
        if name in BROKEN_COUNTERS:
            return 0
        return int(self.value_at(slot, self._flat_index(mode, name)))

    def hardware_read(self, slot: int, mode: Mode, name: str) -> int:
        if name in BROKEN_COUNTERS:
            return 0
        return int(self.value_at(slot, self._flat_index(mode, name))) % COUNTER_MODULUS

    def bank_snapshot(self, slot: int, mode: Mode) -> dict[str, int]:
        return {name: self.read(slot, mode, name) for name in COUNTER_NAMES}

    def flat_snapshot(self, slot: int) -> dict[str, int]:
        return dict(zip(FLAT_NAMES, self.snapshot_vector(slot).tolist()))

    def snapshot_vector(self, slot: int):
        """One slot's int64 snapshot row (broken counters zeroed)."""
        out = self._values[slot].astype(np.int64)  # truncation toward zero
        out[_BROKEN_FLAT] = 0
        return out

    def snapshot_matrix(self, slots: Sequence[int] | None = None):
        """Int64 snapshot rows for many slots — the collector's pass.
        ``None`` reads every slot in slot order, without a gather; either
        way only the 44 counter columns are cast."""
        if slots is None:
            out = self._values.astype(np.int64)
        elif not len(slots):
            return np.zeros((0, ROW_SIZE), dtype=np.int64)
        else:
            out = self._values[np.asarray(slots, dtype=np.intp)].astype(np.int64)
        out[:, _BROKEN_FLAT] = 0
        return out

    # -- per-slot scalars -----------------------------------------------
    def wall(self, slot: int) -> float:
        return float(self._acc[slot, WALL])

    def set_wall(self, slot: int, value: float) -> None:
        self._acc[slot, WALL] = value

    def busy(self, slot: int) -> float:
        return float(self._acc[slot, BUSY])

    def set_busy(self, slot: int, value: float) -> None:
        self._acc[slot, BUSY] = value

    def last_sync(self, slot: int) -> float:
        return float(self._last_sync[slot])

    def reset_bank(self, slot: int, mode: Mode) -> None:
        off = 0 if mode is Mode.USER else BANK_SIZE
        self._values[slot, off : off + BANK_SIZE] = 0.0


class StoreBankView:
    """One mode's bank of 22 counters in one store slot.

    Values accumulate in float (event counts from the analytic model are
    fractional); reads quantize to integers, and :meth:`hardware_read`
    wraps modulo 2³², which is what the physical register shows."""

    __slots__ = ("_store", "_slot", "_mode")

    def __init__(self, store: CounterStore, slot: int, mode: Mode) -> None:
        self._store = store
        self._slot = slot
        self._mode = mode

    def add(self, name: str, amount: float) -> None:
        self._store.add(self._slot, self._mode, name, amount)

    def add_many(self, amounts: Mapping[str, float]) -> None:
        self._store.add_many(self._slot, self._mode, amounts)

    def add_vector(self, vec) -> None:
        self._store.add_vector(self._slot, self._mode, vec)

    def raw(self, name: str) -> float:
        """Unwrapped accumulated total (simulation-side ground truth)."""
        return self._store.raw(self._slot, self._mode, name)

    def raw_vector(self):
        """Copy of the unwrapped accumulator vector."""
        return self._store.raw_vector(self._slot, self._mode)

    def hardware_read(self, name: str) -> int:
        """What the physical 32-bit register reads: wrapped, and zero for
        the broken divide counters.  The cycles counter wraps every
        ≈64 s at 66.7 MHz, which is why RS2HPM's kernel extension
        accumulated into wide software counters (:meth:`read`)."""
        return self._store.hardware_read(self._slot, self._mode, name)

    def read(self, name: str) -> int:
        """The RS2HPM software counter: 64-bit accumulated value, still
        zero for the broken divide counters."""
        return self._store.read(self._slot, self._mode, name)

    def snapshot(self) -> dict[str, int]:
        """Every software counter, as the RS2HPM daemon serves them."""
        return self._store.bank_snapshot(self._slot, self._mode)

    def snapshot_vector(self):
        vec = self._store.snapshot_vector(self._slot)
        off = 0 if self._mode is Mode.USER else BANK_SIZE
        return vec[off : off + BANK_SIZE]

    def reset(self) -> None:
        self._store.reset_bank(self._slot, self._mode)


class StoreMonitor:
    """One node's hardware monitor: a user bank plus a system bank over
    one store slot.

    Work executed on the node is accrued via :meth:`accrue` (CPU events
    from an :class:`~repro.power2.pipeline.ExecutionResult`) and
    :meth:`accrue_dma` (SCU DMA transfer events, which are not tied to a
    privilege mode in Table 1's selection — banked as user reads the way
    RS2HPM's system-wide reports did)."""

    __slots__ = ("_store", "_slot", "banks")

    def __init__(self, store: CounterStore, slot: int) -> None:
        self._store = store
        self._slot = slot
        self.banks = {
            Mode.USER: StoreBankView(store, slot, Mode.USER),
            Mode.SYSTEM: StoreBankView(store, slot, Mode.SYSTEM),
        }

    def accrue(self, result, mode: Mode = Mode.USER) -> None:
        """Account one executed block's events in ``mode``'s bank."""
        self._store.add_many(self._slot, mode, execution_event_counts(result))

    def accrue_raw(self, amounts: Mapping[str, float], mode: Mode) -> None:
        """Directly accrue counter events (paging, idle cycles, ...)."""
        self._store.add_many(self._slot, mode, amounts)

    def accrue_dma(self, *, reads: float = 0.0, writes: float = 0.0) -> None:
        """DMA transfer events from the I/O subsystem (message passing
        and disk traffic, §5)."""
        if reads:
            self._store.add(self._slot, Mode.USER, "dma_read", reads)
        if writes:
            self._store.add(self._slot, Mode.USER, "dma_write", writes)

    def snapshot(self) -> dict[str, dict[str, int]]:
        """Both banks, keyed ``user`` / ``system`` like RS2HPM output."""
        return {
            mode.value: self._store.bank_snapshot(self._slot, mode)
            for mode in (Mode.USER, Mode.SYSTEM)
        }

    def flat_snapshot(self) -> dict[str, int]:
        """RS2HPM's flat label form, e.g. ``user.fxu0``/``system.cycles``."""
        return self._store.flat_snapshot(self._slot)

    def snapshot_vector(self):
        """Both banks as one int64 vector in :data:`FLAT_NAMES` order."""
        return self._store.snapshot_vector(self._slot)

    def reset(self) -> None:
        self._store.reset_bank(self._slot, Mode.USER)
        self._store.reset_bank(self._slot, Mode.SYSTEM)
