"""Derived-metric algebra — how every number in Tables 2–4 is computed.

Input is a block of counter deltas plus the wall seconds it covers and
the number of nodes it sums over: a flat mapping (``user.fxu0`` …) for
job and program reports, or an int64 row in
:data:`~repro.power2.counters.FLAT_NAMES` order for collector intervals
(one row, or a table of them at once).  All forms go through one
derivation, :func:`_derive`.  All rates are *per node*, in millions per
second, matching the paper's convention ("These rates represent single
node values and system rates may be obtained by multiplying by 144").

The flop algebra follows §3/§5 exactly:

* flops = adds + multiplies + divides + 2 × fma, where the monitor's
  divide counters always read zero (hardware bug) — so measured flops
  understate true flops by the ≈3% §3 estimates;
* Mflops-add (Table 3) = pure adds + fma adds; Mflops-fma = fma count
  (its multiply half); Mflops-mult = pure multiplies;
* memory instructions ≈ FXU0 + FXU1 (a *lower bound* on the cache-miss
  ratio denominator, §5);
* Mips = FPU + FXU + ICU instructions; Mops additionally counts the
  second operation of each fma.
"""

from __future__ import annotations

import operator
from typing import Mapping, NamedTuple

import numpy as np

from repro.power2.config import MachineConfig, POWER2_590
from repro.power2.counters import FLAT_COLUMN, FLAT_NAMES
from repro.power2.node import DMA_TRANSFER_BYTES


class DerivedRates(NamedTuple):
    """Per-node rates and ratios derived from one counter-delta block
    (from :func:`column_rates`, one float64 element per block instead).

    A named tuple: the live path builds one per 15-minute interval, and
    a tuple is built in one step, with no per-field ``__setattr__``."""

    seconds: float
    n_nodes: int

    # OPS (Mflops)
    mflops_total: float
    mflops_add: float
    mflops_div: float
    mflops_mul: float
    mflops_fma: float

    # INST (Mips)
    mips_fp_total: float
    mips_fp_unit0: float
    mips_fp_unit1: float
    mips_fxu_total: float
    mips_fxu_unit0: float
    mips_fxu_unit1: float
    mips_icu: float

    # CACHE (millions/s)
    dcache_miss_rate: float
    tlb_miss_rate: float
    icache_miss_rate: float

    # I/O (million transfers/s)
    dma_read_rate: float
    dma_write_rate: float

    # Mode split
    system_user_fxu_ratio: float
    user_cycle_fraction: float

    @property
    def mips_total(self) -> float:
        """Total instruction rate — Table 2's "Mips" row."""
        return self.mips_fp_total + self.mips_fxu_total + self.mips_icu

    @property
    def mops_total(self) -> float:
        """Operation rate — Table 2's "Mops" row (fma counts twice)."""
        return self.mips_total + self.mflops_fma

    @property
    def fpu_ratio(self) -> float:
        """FPU0:FPU1 instruction ratio (§5 measured ≈1.7)."""
        return (
            self.mips_fp_unit0 / self.mips_fp_unit1
            if self.mips_fp_unit1 > 0
            else float("inf")
        )

    @property
    def flops_per_memory_inst(self) -> float:
        """Register-reuse figure of merit (§5: 0.53 workload, 3.0 matmul)."""
        return (
            self.mflops_total / self.mips_fxu_total
            if self.mips_fxu_total > 0
            else 0.0
        )

    @property
    def fma_flop_fraction(self) -> float:
        """Fraction of flops produced by fma instructions (§5: ≈54%)."""
        return (
            2.0 * self.mflops_fma / self.mflops_total
            if self.mflops_total > 0
            else 0.0
        )

    @property
    def branch_fraction(self) -> float:
        """ICU share of all instructions — the paper's branch estimate."""
        return self.mips_icu / self.mips_total if self.mips_total > 0 else 0.0

    @property
    def dcache_miss_ratio(self) -> float:
        """Misses per memory instruction, memory ≈ FXU0+FXU1 (§5: ≥1%)."""
        return (
            self.dcache_miss_rate / self.mips_fxu_total
            if self.mips_fxu_total > 0
            else 0.0
        )

    @property
    def tlb_miss_ratio(self) -> float:
        return (
            self.tlb_miss_rate / self.mips_fxu_total
            if self.mips_fxu_total > 0
            else 0.0
        )

    @property
    def icache_miss_fraction(self) -> float:
        """I-cache misses per instruction fetched (§5: ≈0.4%)."""
        return (
            self.icache_miss_rate / self.mips_total if self.mips_total > 0 else 0.0
        )

    def delay_per_memory_inst(self, config: MachineConfig = POWER2_590) -> float:
        """§5's stall metric: (8·dcache + 45·tlb misses) / memory insts."""
        if self.mips_fxu_total == 0:
            return 0.0
        cyc = (
            self.dcache_miss_rate * config.dcache_miss_cycles
            + self.tlb_miss_rate * config.tlb_miss_cycles
        )
        return cyc / self.mips_fxu_total

    def gflops_system(self, n_nodes: int | None = None) -> float:
        """Whole-machine rate: per-node Mflops × node count / 1000."""
        n = self.n_nodes if n_nodes is None else n_nodes
        return self.mflops_total * n / 1e3

    @property
    def dma_bytes_per_s(self) -> float:
        """DMA traffic in bytes/s (≈32 B per transfer, §5's arithmetic)."""
        return (self.dma_read_rate + self.dma_write_rate) * 1e6 * DMA_TRANSFER_BYTES


def workload_rates(
    deltas: Mapping[str, float], seconds: float, n_nodes: int
) -> DerivedRates:
    """Derive per-node rates from counter deltas summed over ``n_nodes``.

    ``seconds`` is the wall-clock span of the deltas.  Rates are reported
    per node: each summed count is divided by ``seconds × n_nodes``.  A
    counter ``deltas`` does not name counts 0.
    """
    _check(seconds > 0, n_nodes)
    return _derive([float(deltas.get(name, 0)) for name in FLAT_NAMES], seconds, n_nodes)


def row_rates(row: np.ndarray, seconds: float, n_nodes: int) -> DerivedRates:
    """:func:`workload_rates` for one int64 row of counts in
    :data:`~repro.power2.counters.FLAT_NAMES` order: an interval's (or a
    day's) column sums."""
    _check(seconds > 0, n_nodes)
    return _derive(row.astype(np.float64).tolist(), seconds, n_nodes)


def column_rates(sums: np.ndarray, seconds: np.ndarray, n_nodes: int) -> DerivedRates:
    """:func:`row_rates` for every row of an ``(n, 44)`` int64 table at once.

    Each field is an ``(n,)`` float64 array whose element ``k`` equals,
    bit for bit, ``row_rates(sums[k], seconds[k], n_nodes)``'s field: the
    same IEEE operations in the same order, applied elementwise.
    """
    _check(bool((seconds > 0).all()), n_nodes)
    return _derive(sums.T.astype(np.float64), seconds, n_nodes)


def _check(positive_seconds: bool, n_nodes: int) -> None:
    if not positive_seconds:
        raise ValueError("interval must have positive duration")
    if n_nodes <= 0:
        raise ValueError("need at least one node")


def _ratio(num, den):
    """``num / den`` where ``den > 0``, else 0.0 (elementwise on columns)."""
    if isinstance(den, np.ndarray):
        return np.divide(num, den, out=np.zeros_like(den), where=den > 0)
    return num / den if den > 0 else 0.0


#: The counts :func:`_derive` reads, picked out of a row (or a table's
#: rows) in one call, in the order it unpacks them.
_DERIVE_INPUTS = operator.itemgetter(
    *(
        FLAT_COLUMN[name]
        for name in (
            "user.fpu0_fp_add", "user.fpu1_fp_add",
            "user.fpu0_fp_mul", "user.fpu1_fp_mul",
            "user.fpu0_fp_div", "user.fpu1_fp_div",
            "user.fpu0_fp_muladd", "user.fpu1_fp_muladd",
            "user.fpu0", "user.fpu1",
            "user.fxu0", "user.fxu1",
            "system.fxu0", "system.fxu1",
            "user.cycles", "system.cycles",
            "user.icu0", "user.icu1",
            "user.dcache_mis", "user.tlb_mis", "user.icache_reload",
            "user.dma_read", "user.dma_write",
        )
    )
)


def _derive(c, seconds, n_nodes) -> DerivedRates:
    """The one computation of :class:`DerivedRates`' fields.

    ``c[i]`` is counter ``FLAT_NAMES[i]``'s count as a float, or as a
    float64 column of counts (then ``seconds`` is a column too and every
    field comes out a column).  Integer counts are converted to float
    before any arithmetic, exactly once, by the caller.
    """
    (
        add0, add1, mul0, mul1, div0, div1, fma0, fma1,
        fpu0, fpu1, fxu0, fxu1, sys_fxu0, sys_fxu1, user_cycles, sys_cycles,
        icu0, icu1, dcache_mis, tlb_mis, icache_reload, dma_read, dma_write,
    ) = _DERIVE_INPUTS(c)
    per = 1.0 / (seconds * n_nodes * 1e6)  # counts → per-node M/s

    fp_add = add0 + add1
    fp_mul = mul0 + mul1
    fp_div = div0 + div1
    fp_fma = fma0 + fma1

    user_fxu = fxu0 + fxu1
    system_fxu = sys_fxu0 + sys_fxu1
    total_cycles = user_cycles + sys_cycles

    # Positional, in field order: the live path builds one per interval.
    return DerivedRates(
        seconds,
        n_nodes,
        # Table 3's add row includes the fma adds; its fma row is the fma
        # multiplies; the div row is the broken counter (reads 0).
        (fp_add + fp_mul + fp_div + 2.0 * fp_fma) * per,  # mflops_total
        (fp_add + fp_fma) * per,  # mflops_add
        fp_div * per,  # mflops_div
        fp_mul * per,  # mflops_mul
        fp_fma * per,  # mflops_fma
        (fpu0 + fpu1) * per,  # mips_fp_total
        fpu0 * per,  # mips_fp_unit0
        fpu1 * per,  # mips_fp_unit1
        user_fxu * per,  # mips_fxu_total
        fxu0 * per,  # mips_fxu_unit0
        fxu1 * per,  # mips_fxu_unit1
        (icu0 + icu1) * per,  # mips_icu
        dcache_mis * per,  # dcache_miss_rate
        tlb_mis * per,  # tlb_miss_rate
        icache_reload * per,  # icache_miss_rate
        dma_read * per,  # dma_read_rate
        dma_write * per,  # dma_write_rate
        _ratio(system_fxu, user_fxu),  # system_user_fxu_ratio
        _ratio(user_cycles, total_cycles),  # user_cycle_fraction
    )
