"""Cycle accounting for a block of work.

Converts an :class:`~repro.power2.isa.InstructionMix` plus memory-system
behaviour into cycles.  The model is deliberately *behavioural*: it keeps
the unit-level overlap structure of the POWER2 (the ICU, FXU pair and
FPU pair run concurrently; stalls add on top) without simulating
individual pipeline stages.

Three stall sources, all grounded in the paper's §5 discussion:

1. **Issue limits** — each dual unit retires at most two instructions
   per cycle, the ICU one branch per cycle; divides take 10 cycles and
   square roots 15.
2. **Dependency stalls** — "the dependencies among the various
   instructions limit the amount of instruction-level parallelism
   available for exploitation".  Two knobs per kernel: ``ilp`` (how often
   FP instructions can pair/dual-issue, which also sets the FPU0/FPU1
   split) and ``load_use_fraction`` (how often an FP op waits on the
   load feeding it).  These are *kernel properties*, derived from the
   code structure, not per-result fudge factors.
3. **Memory stalls** — 8 cycles per D-cache miss, 36–54 (we use 45) per
   TLB miss, with miss ratios derived from the reference cache/TLB
   simulators for each kernel's access pattern.

With the paper's own CFD instruction mix this yields ≈25–30 Mflops at
full tilt and a blocked matrix multiply yields ≈230–240 Mflops — the two
anchors §5 quotes — from the same constants.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.power2.config import MachineConfig, POWER2_590
from repro.power2.dispatch import DispatchModel, DispatchResult
from repro.power2.isa import InstructionMix


@dataclass(frozen=True)
class MemoryBehaviour:
    """Per-memory-instruction miss ratios for one access pattern."""

    dcache_miss_ratio: float = 0.0
    tlb_miss_ratio: float = 0.0
    #: Instruction-cache misses per *instruction fetched* — tiny for loop
    #: code (§5: ≈0.4% of fetches).
    icache_miss_ratio: float = 0.0
    #: Fraction of d-cache line fills that evict a dirty line (drives the
    #: dcache_store write-back counter).
    writeback_fraction: float = 0.35

    def validate(self) -> None:
        for name in (
            "dcache_miss_ratio",
            "tlb_miss_ratio",
            "icache_miss_ratio",
            "writeback_fraction",
        ):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")


@dataclass(frozen=True)
class DependencyProfile:
    """How much parallelism a kernel's dependency graph exposes.

    ``ilp``
        In ``[0, 1]``; 1 means fully independent FP instructions (perfect
        dual issue, 50/50 FPU split), 0 means one long chain.  The paper's
        measured FPU0:FPU1 ratio of 1.7 corresponds to ``ilp ≈ 0.74``.
    ``load_use_fraction``
        Fraction of loads whose consumer issues immediately behind them
        and eats the load-use bubble.
    """

    ilp: float = 0.74
    load_use_fraction: float = 0.25

    def validate(self) -> None:
        if not 0.0 <= self.ilp <= 1.0:
            raise ValueError(f"ilp must be in [0, 1], got {self.ilp}")
        if not 0.0 <= self.load_use_fraction <= 1.0:
            raise ValueError(
                f"load_use_fraction must be in [0, 1], got {self.load_use_fraction}"
            )


#: The workload-average dependency profile (FPU ratio 1.7 → ilp 0.74).
WORKLOAD_DEPS = DependencyProfile()


@dataclass(frozen=True)
class ExecutionResult:
    """Everything the counters and the scheduler need about one block."""

    mix: InstructionMix
    dispatch: DispatchResult
    cycles: float
    seconds: float
    dcache_misses: float
    tlb_misses: float
    icache_misses: float
    dcache_reloads: float
    dcache_writebacks: float
    icache_reloads: float
    #: Cycle breakdown for diagnostics/ablations.
    issue_cycles: float
    dependency_stall_cycles: float
    memory_stall_cycles: float

    @property
    def mflops(self) -> float:
        return self.mix.flops / self.seconds / 1e6 if self.seconds > 0 else 0.0

    @property
    def flops_per_cycle(self) -> float:
        return self.mix.flops / self.cycles if self.cycles > 0 else 0.0


class CycleModel:
    """Unit-overlap + stall cycle model for the POWER2."""

    #: Bubble cycles charged to an FP instruction that cannot pair —
    #: the dependent-issue latency of the POWER2 FP pipeline.
    FP_DEP_STALL_CYCLES = 3.0
    #: Bubble cycles for a load-use dependency.
    LOAD_USE_STALL_CYCLES = 2.0

    def __init__(self, config: MachineConfig | None = None) -> None:
        self.config = config or POWER2_590

    def execute(
        self,
        mix: InstructionMix,
        memory: MemoryBehaviour,
        deps: DependencyProfile = WORKLOAD_DEPS,
        *,
        dispatch: DispatchModel | None = None,
    ) -> ExecutionResult:
        """Account one block of work; see the module docstring."""
        cfg = self.config
        memory.validate()
        deps.validate()
        mix.validate()
        dm = dispatch or DispatchModel(ilp=deps.ilp)

        mem_insts = mix.memory_insts
        dcache_misses = mem_insts * memory.dcache_miss_ratio
        tlb_misses = mem_insts * memory.tlb_miss_ratio
        icache_misses = mix.total_insts * memory.icache_miss_ratio

        disp = dm.split(mix, dcache_miss_handling=dcache_misses)

        # --- issue-limited time per unit group -------------------------
        fpu_width = cfg.fpu_issue_per_cycle * (0.5 + 0.5 * deps.ilp)
        pipelined_fp = mix.fp_add + mix.fp_mul + mix.fp_fma + mix.fp_misc
        fpu_cycles = (
            pipelined_fp / fpu_width
            + mix.fp_div * cfg.fp_div_cycles
            + mix.fp_sqrt * cfg.fp_sqrt_cycles
        )
        fxu_width = cfg.fxu_issue_per_cycle * (0.75 + 0.25 * deps.ilp)
        fxu_cycles = disp.fxu_total / fxu_width
        icu_cycles = mix.icu_insts / cfg.icu_issue_per_cycle
        issue_cycles = max(fpu_cycles, fxu_cycles, icu_cycles)

        # --- dependency stalls -----------------------------------------
        unpaired_fp = mix.fp_arith_insts * (1.0 - deps.ilp)
        load_like = mix.loads + mix.quad_loads
        dependency_stalls = (
            unpaired_fp * self.FP_DEP_STALL_CYCLES
            + load_like * deps.load_use_fraction * self.LOAD_USE_STALL_CYCLES
        )

        # --- memory stalls ---------------------------------------------
        memory_stalls = (
            dcache_misses * cfg.dcache_miss_cycles
            + tlb_misses * cfg.tlb_miss_cycles
            + icache_misses * cfg.icache_miss_cycles
        )

        cycles = issue_cycles + dependency_stalls + memory_stalls
        seconds = cycles * cfg.cycle_seconds

        return ExecutionResult(
            mix=mix,
            dispatch=disp,
            cycles=cycles,
            seconds=seconds,
            dcache_misses=dcache_misses,
            tlb_misses=tlb_misses,
            icache_misses=icache_misses,
            dcache_reloads=dcache_misses,
            dcache_writebacks=dcache_misses * memory.writeback_fraction,
            icache_reloads=icache_misses,
            issue_cycles=issue_cycles,
            dependency_stall_cycles=dependency_stalls,
            memory_stall_cycles=memory_stalls,
        )

    def delay_per_memory_instruction(self, result: ExecutionResult) -> float:
        """§5's 'delay per memory reference' metric (≈0.12 cycles)."""
        mem = result.mix.memory_insts
        if mem == 0:
            return 0.0
        cfg = self.config
        delay = (
            result.dcache_misses * cfg.dcache_miss_cycles
            + result.tlb_misses * cfg.tlb_miss_cycles
        )
        return delay / mem
