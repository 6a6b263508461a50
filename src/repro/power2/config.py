"""Machine constants for the NAS SP2's RS6000/590 nodes.

All values are taken from §2 and §5 of the paper:

* 66.7 MHz clock; peak 267 Mflops (two FPUs × one fma × 2 flops / cycle);
* 256 kB 4-way set-associative data cache, 1024 lines × 256 bytes;
* 4096-byte pages, 512-entry TLB;
* 8-cycle data-cache miss stall, 36–54-cycle TLB miss stall;
* 10-cycle divide, 15-cycle square root;
* 128 MB of node memory, 2 GB of local disk;
* switch latency 45 µs, node-to-node bandwidth 34 MB/s.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CacheGeometry:
    """Size/shape of a cache; defaults are the POWER2 D-cache."""

    total_bytes: int = 256 * 1024
    line_bytes: int = 256
    associativity: int = 4

    @property
    def n_lines(self) -> int:
        return self.total_bytes // self.line_bytes

    @property
    def n_sets(self) -> int:
        return self.n_lines // self.associativity

    def __post_init__(self) -> None:
        if self.total_bytes % self.line_bytes:
            raise ValueError("cache size must be a multiple of the line size")
        if self.n_lines % self.associativity:
            raise ValueError("line count must be a multiple of associativity")


@dataclass(frozen=True)
class TLBGeometry:
    """POWER2 TLB: 512 entries over 4 kB pages (2-way set-associative)."""

    entries: int = 512
    page_bytes: int = 4096
    associativity: int = 2

    @property
    def n_sets(self) -> int:
        return self.entries // self.associativity

    def __post_init__(self) -> None:
        if self.entries % self.associativity:
            raise ValueError(
                f"TLB entries must be a multiple of the associativity "
                f"{self.associativity}, got {self.entries}"
            )
        if self.page_bytes <= 0 or self.page_bytes & (self.page_bytes - 1):
            raise ValueError(
                f"TLB page size must be a power of two, got {self.page_bytes} bytes"
            )


@dataclass(frozen=True)
class MachineConfig:
    """Every per-node constant the simulation needs, in one place."""

    clock_hz: float = 66.7e6
    #: Peak flops/cycle: both FPUs retiring an fma (2 flops) each cycle.
    peak_flops_per_cycle: float = 4.0

    dcache: CacheGeometry = field(default_factory=CacheGeometry)
    icache: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(
            total_bytes=32 * 1024, line_bytes=128, associativity=2
        )
    )
    tlb: TLBGeometry = field(default_factory=TLBGeometry)

    #: Stall cycles on a data-cache miss (§5: "execution may halt for 8
    #: cycles while the reference is satisfied").
    dcache_miss_cycles: float = 8.0
    #: TLB miss costs 36–54 cycles; we account the midpoint.
    tlb_miss_cycles: float = 45.0
    icache_miss_cycles: float = 8.0
    #: Multicycle FPU operations (§5).
    fp_div_cycles: float = 10.0
    fp_sqrt_cycles: float = 15.0

    #: Issue widths (§2): ICU dispatches 4/cycle; each FXU and FPU pair
    #: retires up to 2 instructions per cycle.
    fxu_issue_per_cycle: float = 2.0
    fpu_issue_per_cycle: float = 2.0
    icu_issue_per_cycle: float = 1.0

    memory_bytes: int = 128 * 1024 * 1024
    disk_bytes: int = 2 * 1024 * 1024 * 1024

    #: AIX page-fault service model: CPU cycles of system-mode work per
    #: fault; a hard fault additionally waits on the paging disk.  (The
    #: system-mode instruction *rates* during thrashing live in
    #: :mod:`repro.power2.node` — they scale with stolen time, not per
    #: fault.)
    page_fault_service_cycles: float = 3000.0
    page_fault_disk_seconds: float = 0.009
    #: Paging-disk hard-fault service limit (faults/s) and the
    #: oversubscription fraction at which the fault rate saturates.
    paging_fault_limit: float = 110.0
    paging_onset: float = 0.25

    @property
    def peak_mflops(self) -> float:
        """267 Mflops for the 66.7 MHz POWER2."""
        return self.clock_hz * self.peak_flops_per_cycle / 1e6

    @property
    def cycle_seconds(self) -> float:
        return 1.0 / self.clock_hz


#: The NAS SP2 node configuration used throughout the study.
POWER2_590 = MachineConfig()


@dataclass(frozen=True)
class SwitchConfig:
    """SP2 High Performance Switch characteristics (§2)."""

    latency_seconds: float = 45e-6
    bandwidth_bytes_per_s: float = 34e6
    #: §2: "available communication bandwidth ... scales linearly with the
    #: number of processors" — bisection per node is constant.
    per_node_scaling: bool = True


SP2_SWITCH = SwitchConfig()
