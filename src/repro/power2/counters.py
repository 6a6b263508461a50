"""The POWER2 hardware performance monitor — Table 1's 22 counters.

The physical monitor is 22 32-bit counters on the SCU chip, organized as
five counters each for the FXU, FPU0, FPU1 and SCU groups and two for the
ICU.  This module reproduces:

* the exact NAS counter selection of Table 1 (:data:`COUNTER_LAYOUT`);
* the user/system mode split (RS2HPM reports both; §6's paging finding
  rests on comparing system-mode and user-mode FXU counts);
* 32-bit wraparound — counters are narrow, and the collection scripts
  must difference snapshots modulo 2³²;
* the **broken divide counter**: "An implementation error in the
  hardware monitor prevented the proper reporting of the division
  operations" (§3).  Divides execute and cost cycles, but both FPU
  divide counters always read zero, exactly as in the paper
  (Table 3's Mflops-div row).

This module is the layout and the pure counter algebra; every node's
counter values live in :class:`~repro.power2.batch.CounterStore`, read
through its bank and monitor views.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.power2.pipeline import ExecutionResult

#: 2³² — the counters are 32 bits wide.
COUNTER_MODULUS = 1 << 32


class Mode(enum.Enum):
    """Processor privilege mode a count accrued in."""

    USER = "user"
    SYSTEM = "system"


@dataclass(frozen=True)
class CounterSpec:
    """One row of Table 1."""

    name: str
    group: str
    slot: int
    description: str


#: The NAS SP2 RS2HPM counter selection, in Table 1's order.
COUNTER_LAYOUT: tuple[CounterSpec, ...] = (
    CounterSpec("fxu0", "FXU", 0, "number of instructions executed by Execution unit 0"),
    CounterSpec("fxu1", "FXU", 1, "number of instructions executed by Execution unit 1"),
    CounterSpec("dcache_mis", "FXU", 2, "FPU and FXU requests for data not in the D-cache"),
    CounterSpec("tlb_mis", "FXU", 3, "FPU and FXU requests for data not on a TLB-mapped page"),
    CounterSpec("cycles", "FXU", 4, "cycles in this mode"),
    CounterSpec("fpu0", "FPU0", 0, "arithmetic instructions executed by Math 0"),
    CounterSpec("fpu0_fp_add", "FPU0", 1, "floating point adds executed by Math 0"),
    CounterSpec("fpu0_fp_mul", "FPU0", 2, "floating point multiplies executed by Math 0"),
    CounterSpec("fpu0_fp_div", "FPU0", 3, "floating point divides executed by Math 0 (broken: reads 0)"),
    CounterSpec("fpu0_fp_muladd", "FPU0", 4, "floating point multiply-adds executed by Math 0"),
    CounterSpec("fpu1", "FPU1", 0, "arithmetic instructions executed by Math 1"),
    CounterSpec("fpu1_fp_add", "FPU1", 1, "floating point adds executed by Math 1"),
    CounterSpec("fpu1_fp_mul", "FPU1", 2, "floating point multiplies executed by Math 1"),
    CounterSpec("fpu1_fp_div", "FPU1", 3, "floating point divides executed by Math 1 (broken: reads 0)"),
    CounterSpec("fpu1_fp_muladd", "FPU1", 4, "floating point multiply-adds executed by Math 1"),
    CounterSpec("icu0", "ICU", 0, "number of type I instructions executed"),
    CounterSpec("icu1", "ICU", 1, "number of type II instructions executed"),
    CounterSpec("icache_reload", "SCU", 0, "data transfers from memory to the I-cache"),
    CounterSpec("dcache_reload", "SCU", 1, "data transfers from memory to the D-cache"),
    CounterSpec("dcache_store", "SCU", 2, "transfers of modified D-cache data back to memory"),
    CounterSpec("dma_read", "SCU", 3, "data transfers from memory to an I/O device"),
    CounterSpec("dma_write", "SCU", 4, "data transfers to memory from an I/O device"),
)

COUNTER_NAMES: tuple[str, ...] = tuple(spec.name for spec in COUNTER_LAYOUT)
_INDEX: dict[str, int] = {name: i for i, name in enumerate(COUNTER_NAMES)}

#: Counters the hardware bug zeroes out (§3).
BROKEN_COUNTERS: frozenset[str] = frozenset({"fpu0_fp_div", "fpu1_fp_div"})
#: Bank positions of the broken counters.
BROKEN_INDICES: tuple[int, ...] = tuple(_INDEX[name] for name in sorted(BROKEN_COUNTERS))

#: Flat labels of a node's counter row: user bank then system bank.
FLAT_NAMES: tuple[str, ...] = tuple(
    f"{mode}.{name}" for mode in ("user", "system") for name in COUNTER_NAMES
)
#: Position of each flat label in such a row.
FLAT_COLUMN: dict[str, int] = {name: i for i, name in enumerate(FLAT_NAMES)}


#: Number of counters in a bank (22 for the NAS selection).
BANK_SIZE = len(COUNTER_LAYOUT)


def counter_index(name: str) -> int:
    """Position of a counter in a snapshot vector."""
    try:
        return _INDEX[name]
    except KeyError:
        raise KeyError(f"unknown counter {name!r}; see COUNTER_NAMES") from None


def rates_vector(amounts: Mapping[str, float]) -> np.ndarray:
    """Pack per-counter amounts into a bank-ordered float vector.

    The campaign fast path accrues counters as ``bank += vector * dt``;
    this is the constructor for those vectors.
    """
    vec = np.zeros(BANK_SIZE, dtype=np.float64)
    for name, amount in amounts.items():
        if amount < 0:
            raise ValueError(f"negative rate for {name}: {amount}")
        vec[counter_index(name)] = amount
    return vec


def wrapped_delta(before: int, after: int) -> int:
    """Difference of two raw 32-bit hardware reads, tolerating one wrap.

    This is what the kernel extension computes on every fast sample
    before accumulating into the wide software counters.
    """
    for v in (before, after):
        if not 0 <= v < COUNTER_MODULUS:
            raise ValueError(f"counter read {v} out of 32-bit range")
    return (after - before) % COUNTER_MODULUS


def snapshot_delta(before: Mapping[str, int], after: Mapping[str, int]) -> dict[str, int]:
    """Per-counter difference of two software-counter snapshots."""
    missing = set(before) ^ set(after)
    if missing:
        raise ValueError(f"snapshots disagree on counters: {sorted(missing)}")
    out: dict[str, int] = {}
    for name in before:
        d = after[name] - before[name]
        if d < 0:
            raise ValueError(
                f"software counter {name} went backwards ({before[name]} -> {after[name]})"
            )
        out[name] = d
    return out


def execution_event_counts(result: ExecutionResult) -> dict[str, float]:
    """Map an executed block to the counter events it generates.

    Pure function shared by the phase-level monitor path and the
    campaign rate-vector builder, so both accrue identical events.
    """
    d = result.dispatch
    return {
        "fxu0": d.fxu0,
        "fxu1": d.fxu1,
        "dcache_mis": result.dcache_misses,
        "tlb_mis": result.tlb_misses,
        "cycles": result.cycles,
        "fpu0": d.fpu0,
        "fpu0_fp_add": d.fpu0_add,
        "fpu0_fp_mul": d.fpu0_mul,
        "fpu0_fp_div": d.fpu0_div,
        "fpu0_fp_muladd": d.fpu0_fma,
        "fpu1": d.fpu1,
        "fpu1_fp_add": d.fpu1_add,
        "fpu1_fp_mul": d.fpu1_mul,
        "fpu1_fp_div": d.fpu1_div,
        "fpu1_fp_muladd": d.fpu1_fma,
        "icu0": d.icu_type1,
        "icu1": d.icu_type2,
        "icache_reload": result.icache_reloads,
        "dcache_reload": result.dcache_reloads,
        "dcache_store": result.dcache_writebacks,
    }


def table1() -> Iterable[tuple[str, str, str]]:
    """Rows for regenerating Table 1: (label, group[slot], description)."""
    for spec in COUNTER_LAYOUT:
        label = ("fpop." if spec.name.startswith(("fpu0_fp_", "fpu1_fp_")) else "user.") + (
            spec.name.split("_", 1)[1] if spec.name.startswith(("fpu0_fp_", "fpu1_fp_")) else spec.name
        )
        yield label, f"{spec.group}[{spec.slot}]", spec.description
