"""Behavioural model of the IBM POWER2 (RS6000/590) processor.

This subpackage replaces the paper's silicon.  It provides:

* :mod:`repro.power2.config` — machine constants (66.7 MHz clock, 267
  Mflops peak, cache/TLB geometry, miss penalties) exactly as §2 of the
  paper describes them;
* :mod:`repro.power2.isa` — the instruction-category algebra used
  everywhere (what is an fma, what counts as a flop, quad load/stores);
* :mod:`repro.power2.dcache` / :mod:`repro.power2.tlb` — reference
  set-associative cache and TLB simulators, used to *derive* the analytic
  miss ratios the fast campaign model uses and to reproduce Table 4's
  "sequential access" column from first principles;
* :mod:`repro.power2.dispatch` — the dual-FXU / dual-FPU dispatch
  asymmetries (§5's FPU0:FPU1 = 1.7 discussion);
* :mod:`repro.power2.pipeline` — cycle accounting: instruction mix +
  memory behaviour → cycles;
* :mod:`repro.power2.counters` — the 22-counter hardware performance
  monitor of Table 1, including the broken divide counter;
* :mod:`repro.power2.batch` — the counter store every node's counters
  live in, and its per-node bank and monitor views;
* :mod:`repro.power2.node` — an RS6000/590 node: CPU + 128 MB memory +
  AIX-style paging + DMA engine.
"""

from repro.power2.config import MachineConfig, POWER2_590
from repro.power2.isa import InstructionMix, FlopBreakdown
from repro.power2.dcache import SetAssociativeCache, CacheStats
from repro.power2.tlb import TLB
from repro.power2.dispatch import DispatchModel, DispatchResult
from repro.power2.pipeline import CycleModel, ExecutionResult
from repro.power2.counters import Mode, COUNTER_LAYOUT
from repro.power2.batch import CounterStore, StoreMonitor
from repro.power2.node import Node, PhaseResult, WorkPhase, compute_paging_state
from repro.power2.vm import FaultKind, VirtualMemory
from repro.power2.streams import measure_stream

__all__ = [
    "MachineConfig",
    "POWER2_590",
    "InstructionMix",
    "FlopBreakdown",
    "SetAssociativeCache",
    "CacheStats",
    "TLB",
    "DispatchModel",
    "DispatchResult",
    "CycleModel",
    "ExecutionResult",
    "CounterStore",
    "StoreMonitor",
    "Mode",
    "COUNTER_LAYOUT",
    "Node",
    "WorkPhase",
    "PhaseResult",
    "compute_paging_state",
    "FaultKind",
    "VirtualMemory",
    "measure_stream",
]
