"""AIX-style virtual memory: page tables, reclaim, fault service.

§6's diagnosis rests on paging behaviour the analytic campaign model
summarizes as a fault rate and a stolen-time fraction
(:func:`repro.power2.node.compute_paging_state`).  This module is the
*detailed* model underneath: per-process page tables over the node's
frame pool, an LRU-with-reference-bit reclaim daemon (AIX's ``lrud``),
fault classification (first-touch zero-fill vs free-list reclaim vs hard
faults against the paging disk), and fault-service cost accounting.

It serves three purposes:

* unit/property tests of paging invariants (frames conserved, no
  double mapping, reclaim ordering);
* validation that the analytic stolen-fraction model agrees with a
  trace-driven simulation of an oversubscribed working set
  (``tests/power2/test_vm.py::TestAnalyticAgreement``);
* micro-level examples (a job touching more memory than the node has).
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass

from repro.power2.config import MachineConfig, POWER2_590


class FaultKind(enum.Enum):
    """Why a reference missed in the page table."""

    #: First touch of a never-mapped page: zero-fill, no disk.
    ZERO_FILL = "zero-fill"
    #: Page was unmapped by the reclaim daemon but still in a frame.
    RECLAIM = "reclaim"
    #: Page's frame was repurposed; must be read from paging space.
    HARD = "hard"


@dataclass
class VMStats:
    """Fault and reclaim accounting."""

    references: int = 0
    hits: int = 0
    zero_fill_faults: int = 0
    reclaim_faults: int = 0
    hard_faults: int = 0
    pageouts: int = 0
    #: Seconds of fault service (CPU + paging disk).
    service_seconds: float = 0.0

    @property
    def faults(self) -> int:
        return self.zero_fill_faults + self.reclaim_faults + self.hard_faults

    @property
    def hard_fault_ratio(self) -> float:
        return self.hard_faults / self.references if self.references else 0.0

    def check(self) -> None:
        if self.hits + self.faults != self.references:
            raise AssertionError("hits + faults != references")


@dataclass
class _Frame:
    """One physical frame."""

    pid: int
    page: int
    referenced: bool = True
    dirty: bool = False


class VirtualMemory:
    """One node's frame pool plus per-process page tables.

    Parameters
    ----------
    config:
        Machine constants (frame count = memory / page size).
    pinned_fraction:
        Fraction of frames the kernel pins (AIX kernel + buffers);
        user pages compete for the rest.
    """

    #: CPU cost of servicing each fault kind, in cycles.
    SERVICE_CYCLES = {
        FaultKind.ZERO_FILL: 1200.0,
        FaultKind.RECLAIM: 800.0,
        FaultKind.HARD: 3000.0,
    }

    def __init__(
        self,
        config: MachineConfig | None = None,
        *,
        pinned_fraction: float = 0.08,
        paging_disk_seconds: float | None = None,
    ) -> None:
        self.config = config or POWER2_590
        if not 0.0 <= pinned_fraction < 1.0:
            raise ValueError("pinned_fraction must be in [0, 1)")
        total_frames = self.config.memory_bytes // self.config.tlb.page_bytes
        self.n_frames = int(total_frames * (1.0 - pinned_fraction))
        self.paging_disk_seconds = (
            self.config.page_fault_disk_seconds
            if paging_disk_seconds is None
            else paging_disk_seconds
        )
        #: Frame pool in LRU order: key = (pid, page) → _Frame.
        self._frames: OrderedDict[tuple[int, int], _Frame] = OrderedDict()
        #: Pages evicted to paging space, per process.
        self._paged_out: set[tuple[int, int]] = set()
        #: Pages each process has ever touched (for zero-fill vs hard).
        self._known: set[tuple[int, int]] = set()
        self.stats = VMStats()

    # ------------------------------------------------------------------
    @property
    def frames_used(self) -> int:
        return len(self._frames)

    def resident_pages(self, pid: int) -> int:
        return sum(1 for key in self._frames if key[0] == pid)

    # ------------------------------------------------------------------
    def touch(self, pid: int, address: int, *, write: bool = False) -> FaultKind | None:
        """One memory reference; returns the fault kind (None on hit)."""
        page = int(address) // self.config.tlb.page_bytes
        key = (pid, page)
        self.stats.references += 1

        frame = self._frames.get(key)
        if frame is not None:
            self.stats.hits += 1
            frame.referenced = True
            frame.dirty = frame.dirty or write
            self._frames.move_to_end(key)
            return None

        # Fault: classify.
        if key in self._paged_out:
            kind = FaultKind.HARD
            self.stats.hard_faults += 1
            self._paged_out.discard(key)
        elif key in self._known:
            # Unmapped but never written out — we model reclaim as the
            # middle case (its frame was stolen but found on the free
            # list before reuse only if memory pressure was mild).
            kind = FaultKind.RECLAIM
            self.stats.reclaim_faults += 1
        else:
            kind = FaultKind.ZERO_FILL
            self.stats.zero_fill_faults += 1
            self._known.add(key)

        self._allocate_frame(key, write)
        self.stats.service_seconds += self.fault_service_seconds(kind)
        return kind

    def _allocate_frame(self, key: tuple[int, int], write: bool) -> None:
        if len(self._frames) >= self.n_frames:
            self._evict_one()
        self._frames[key] = _Frame(pid=key[0], page=key[1], dirty=write)
        self._frames.move_to_end(key)

    def _evict_one(self) -> None:
        """lrud: second-chance over the LRU order."""
        while True:
            key, frame = next(iter(self._frames.items()))
            if frame.referenced:
                frame.referenced = False
                self._frames.move_to_end(key)
                continue
            del self._frames[key]
            if frame.dirty:
                self.stats.pageouts += 1
                self.stats.service_seconds += self.paging_disk_seconds
                self._paged_out.add(key)
            else:
                # Clean page: drop it; a re-touch is a hard fault only
                # if it had ever been paged out, else a reclaim.
                if key in self._paged_out:
                    pass  # already backed by paging space
            return

    def fault_service_seconds(self, kind: FaultKind) -> float:
        """Wall cost of one fault of the given kind."""
        cpu = self.SERVICE_CYCLES[kind] * self.config.cycle_seconds
        if kind is FaultKind.HARD:
            return cpu + self.paging_disk_seconds
        return cpu

    # ------------------------------------------------------------------
    def terminate(self, pid: int) -> int:
        """Release a process's frames and paging space; returns frames
        freed."""
        keys = [k for k in self._frames if k[0] == pid]
        for k in keys:
            del self._frames[k]
        self._paged_out = {k for k in self._paged_out if k[0] != pid}
        self._known = {k for k in self._known if k[0] != pid}
        return len(keys)
