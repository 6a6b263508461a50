"""The application catalog — §4's population, made generative.

Each :class:`ApplicationTemplate` describes one family of codes the
paper names (multiblock CFD solvers, multidisciplinary optimization
sweeps, the asynchronous Navier–Stokes code of §6, unported vector
codes, BLAS3 electromagnetics, preprocessing jobs, the paging-prone wide
jobs) with distributions over node count, per-iteration work, memory
demand, communication shape, and walltime.  ``instantiate`` draws one
concrete job and builds its :class:`~repro.workload.profile.JobProfile`.

Per-job kernel jitter (ILP, register reuse, fma fraction) produces the
wide per-job spread Figure 4 shows (320 ± 200 Mflops for 16-node jobs)
without per-figure tuning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.power2.config import MachineConfig
from repro.power2.pipeline import DependencyProfile
from repro.util.rng import choice_cdf, choice_index
from repro.workload.kernels import KernelSpec, kernel
from repro.workload.profile import CommPattern, IOPattern, JobProfile, build_job_profile

MB = 1024 * 1024


@lru_cache(maxsize=2048)
def _cached_profile(
    app_name: str,
    kernel_spec: KernelSpec,
    nodes: int,
    flops_iter: float,
    walltime: float,
    memory: float,
    comm: CommPattern,
    io: IOPattern,
    serial: float,
    config: MachineConfig | None = None,
) -> JobProfile:
    """Memoized profile construction for one concrete job draw.

    Every argument is hashable and :func:`build_job_profile` is pure, so
    re-drawing the same job (a differential scalar-vs-vectorized pair, a
    re-merged shard, a resumed campaign) reuses the frozen profile —
    same object, same bits — instead of re-running the cycle model and
    switch costing.  Profiles are immutable downstream: PBS derives new
    arrays from the rate vectors, never writes into them.
    """
    return build_job_profile(
        app_name=app_name,
        kernel=kernel_spec,
        nodes=nodes,
        flops_per_node_per_iteration=flops_iter,
        walltime_seconds=walltime,
        memory_bytes_per_node=memory,
        comm=comm,
        io=io,
        config=config,
        serial_fraction=serial,
    )


@dataclass(frozen=True)
class ApplicationTemplate:
    """One family of user codes."""

    name: str
    kernel_name: str
    description: str
    #: Relative submission frequency in the workload.
    popularity: float
    node_choices: tuple[int, ...]
    node_weights: tuple[float, ...]
    #: Lognormal(mean, sigma) of per-node flops per iteration.
    flops_per_iter_log10_mean: float
    flops_per_iter_log10_sigma: float
    #: Lognormal walltime (seconds).
    walltime_log10_mean: float
    walltime_log10_sigma: float
    #: Uniform memory demand per node (bytes).
    memory_min: float
    memory_max: float
    #: Communication structure.
    neighbors: int = 0
    halo_kbytes_mean: float = 0.0
    asynchronous: bool = False
    global_syncs: int = 0
    #: Load imbalance / serial section range (uniform).
    serial_fraction_range: tuple[float, float] = (0.0, 0.0)
    checkpoint_mbytes: float = 0.0
    #: Per-job jitter scales.
    ilp_jitter: float = 0.04
    mem_ratio_jitter: float = 0.15
    fma_jitter: float = 0.06
    _node_cdf: list[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.node_choices) != len(self.node_weights):
            raise ValueError(f"{self.name}: node choices/weights length mismatch")
        if not self.node_choices:
            raise ValueError(f"{self.name}: needs node choices")
        kernel(self.kernel_name)  # validate reference
        w = np.asarray(self.node_weights, dtype=float)
        object.__setattr__(self, "_node_cdf", choice_cdf(w / w.sum()))

    # ------------------------------------------------------------------
    def sample_nodes(self, rng: np.random.Generator) -> int:
        """``rng.choice(node_choices, p=normalised node_weights)``, drawn
        from the prebuilt table."""
        return self.node_choices[choice_index(self._node_cdf, rng)]

    def _jittered_kernel(self, rng: np.random.Generator) -> KernelSpec:
        base = kernel(self.kernel_name)
        ilp = min(max(base.deps.ilp + rng.normal(0, self.ilp_jitter), 0.05), 0.995)
        mem_scale = float(np.exp(rng.normal(0, self.mem_ratio_jitter)))
        fma = min(max(base.fma_flop_fraction + rng.normal(0, self.fma_jitter), 0.0), 0.99)
        return base.with_(
            deps=DependencyProfile(ilp=ilp, load_use_fraction=base.deps.load_use_fraction),
            mem_insts_per_flop=base.mem_insts_per_flop * mem_scale,
            fma_flop_fraction=fma,
        )

    def instantiate(
        self,
        rng: np.random.Generator,
        *,
        nodes: int | None = None,
        config: MachineConfig | None = None,
    ) -> JobProfile:
        """Draw one concrete job of this family.

        ``config`` is the machine the job will run on; the kernel's
        cache/TLB miss ratios are evaluated against *its* geometry, so a
        sweep over TLB entries or page size actually changes the
        workload's measured rates.  ``None`` means the stock POWER2/590.
        The draw sequence is config-independent: the same rng produces
        the same job on every machine.
        """
        n = self.sample_nodes(rng) if nodes is None else nodes
        k = self._jittered_kernel(rng)
        flops_iter = 10.0 ** rng.normal(
            self.flops_per_iter_log10_mean, self.flops_per_iter_log10_sigma
        )
        walltime = 10.0 ** rng.normal(self.walltime_log10_mean, self.walltime_log10_sigma)
        walltime = min(max(walltime, 60.0), 3.0 * 86400.0)
        memory = rng.uniform(self.memory_min, self.memory_max)
        lo, hi = self.serial_fraction_range
        serial = float(rng.uniform(lo, hi)) if hi > lo else lo
        halo_bytes = (
            self.halo_kbytes_mean * 1024.0 * float(np.exp(rng.normal(0, 0.3)))
            if self.neighbors
            else 0.0
        )
        comm = CommPattern(
            neighbors=self.neighbors if n > 1 else 0,
            bytes_per_neighbor=halo_bytes,
            asynchronous=self.asynchronous,
            global_syncs=self.global_syncs if n > 1 else 0,
        )
        io = IOPattern(bytes_per_checkpoint=self.checkpoint_mbytes * MB)
        return _cached_profile(
            self.name, k, n, flops_iter, walltime, memory, comm, io, serial, config
        )


def _app(**kw: object) -> ApplicationTemplate:
    return ApplicationTemplate(**kw)  # type: ignore[arg-type]


#: The catalog.  Popularities are submission-count weights; together with
#: each family's walltime and node distributions they produce Figure 2's
#: walltime concentration at 16/32/8 nodes.
APPLICATIONS: dict[str, ApplicationTemplate] = {
    a.name: a
    for a in (
        _app(
            name="multiblock_cfd",
            kernel_name="cfd_multiblock",
            description="Multiblock aerodynamics solvers — the workload's majority (§4)",
            popularity=0.36,
            node_choices=(4, 8, 16, 32, 64),
            node_weights=(0.08, 0.22, 0.42, 0.22, 0.06),
            flops_per_iter_log10_mean=8.5,
            flops_per_iter_log10_sigma=0.35,
            walltime_log10_mean=3.95,  # ≈ 2.5 h
            walltime_log10_sigma=0.42,
            memory_min=40 * MB,
            memory_max=115 * MB,
            neighbors=6,
            halo_kbytes_mean=1600.0,
            global_syncs=2,
            serial_fraction_range=(0.25, 0.55),
            checkpoint_mbytes=130.0,
        ),
        _app(
            name="opt_sweep",
            kernel_name="cfd_multiblock",
            description="Multidisciplinary optimization: independent configurations (§4)",
            popularity=0.10,
            node_choices=(8, 16, 32),
            node_weights=(0.3, 0.55, 0.15),
            flops_per_iter_log10_mean=8.6,
            flops_per_iter_log10_sigma=0.3,
            walltime_log10_mean=4.1,
            walltime_log10_sigma=0.35,
            memory_min=30 * MB,
            memory_max=100 * MB,
            neighbors=0,  # embarrassingly parallel
            global_syncs=0,
            serial_fraction_range=(0.10, 0.30),
            checkpoint_mbytes=60.0,
        ),
        _app(
            name="navier_stokes_async",
            kernel_name="cfd_tuned",
            description="Asynchronous-messaging Navier–Stokes (§6's 40 Mflops/node champion)",
            popularity=0.06,
            node_choices=(16, 24, 28, 32),
            node_weights=(0.15, 0.2, 0.5, 0.15),
            flops_per_iter_log10_mean=8.8,
            flops_per_iter_log10_sigma=0.25,
            walltime_log10_mean=4.0,
            walltime_log10_sigma=0.35,
            memory_min=60 * MB,
            memory_max=110 * MB,
            neighbors=6,
            halo_kbytes_mean=1900.0,
            asynchronous=True,
            serial_fraction_range=(0.04, 0.14),
            checkpoint_mbytes=170.0,
        ),
        _app(
            name="legacy_vector",
            kernel_name="legacy_vector",
            description="Codes written for vector machines, ported unchanged (§7)",
            popularity=0.22,
            node_choices=(1, 2, 4, 8, 16),
            node_weights=(0.15, 0.12, 0.25, 0.26, 0.22),
            flops_per_iter_log10_mean=8.2,
            flops_per_iter_log10_sigma=0.35,
            walltime_log10_mean=4.0,
            walltime_log10_sigma=0.45,
            memory_min=30 * MB,
            memory_max=110 * MB,
            neighbors=2,
            halo_kbytes_mean=800.0,
            global_syncs=1,
            serial_fraction_range=(0.10, 0.35),
            checkpoint_mbytes=90.0,
        ),
        _app(
            name="spectral_em",
            kernel_name="spectral_em",
            description="BLAS3-heavy electromagnetics (the Farhat code family, §5)",
            popularity=0.06,
            node_choices=(16, 32, 48, 64),
            node_weights=(0.45, 0.40, 0.10, 0.05),
            flops_per_iter_log10_mean=9.0,
            flops_per_iter_log10_sigma=0.3,
            walltime_log10_mean=4.15,
            walltime_log10_sigma=0.35,
            memory_min=70 * MB,
            memory_max=120 * MB,
            neighbors=3,
            halo_kbytes_mean=2600.0,
            global_syncs=1,
            serial_fraction_range=(0.30, 0.55),
            checkpoint_mbytes=300.0,
        ),
        _app(
            name="nonfp_preproc",
            kernel_name="nonfp_preproc",
            description="Grid generation and pre/post-processing (little floating point)",
            popularity=0.08,
            node_choices=(1, 4, 8),
            node_weights=(0.5, 0.3, 0.2),
            flops_per_iter_log10_mean=7.2,
            flops_per_iter_log10_sigma=0.4,
            walltime_log10_mean=3.6,
            walltime_log10_sigma=0.4,
            memory_min=20 * MB,
            memory_max=90 * MB,
            neighbors=0,
            serial_fraction_range=(0.05, 0.25),
            checkpoint_mbytes=250.0,
        ),
        _app(
            name="wide_paging",
            kernel_name="cfd_multiblock",
            description="Wide jobs whose automatic arrays oversubscribe node memory (§6)",
            popularity=0.025,
            node_choices=(80, 96, 112, 128),
            node_weights=(0.35, 0.3, 0.2, 0.15),
            flops_per_iter_log10_mean=8.5,
            flops_per_iter_log10_sigma=0.3,
            walltime_log10_mean=3.85,
            walltime_log10_sigma=0.3,
            memory_min=135 * MB,  # > 128 MB: pages
            memory_max=200 * MB,
            neighbors=6,
            halo_kbytes_mean=1300.0,
            global_syncs=2,
            serial_fraction_range=(0.15, 0.40),
            checkpoint_mbytes=170.0,
        ),
        _app(
            name="wide_sync",
            kernel_name="cfd_multiblock",
            description="Wide synchronous-communication jobs (§6's other >64-node failure)",
            popularity=0.015,
            node_choices=(72, 96, 128),
            node_weights=(0.45, 0.35, 0.2),
            flops_per_iter_log10_mean=7.6,
            flops_per_iter_log10_sigma=0.25,
            walltime_log10_mean=3.8,
            walltime_log10_sigma=0.3,
            memory_min=40 * MB,
            memory_max=110 * MB,
            neighbors=8,
            halo_kbytes_mean=2000.0,
            global_syncs=8,
            serial_fraction_range=(0.30, 0.60),
            checkpoint_mbytes=110.0,
        ),
        _app(
            name="npb_bt_benchmark",
            kernel_name="npb_bt",
            description="NPB BT runs (Table 4's 44 Mflops/CPU on 49 nodes; short, filtered from §6)",
            popularity=0.05,
            node_choices=(49,),
            node_weights=(1.0,),
            flops_per_iter_log10_mean=8.9,
            flops_per_iter_log10_sigma=0.15,
            walltime_log10_mean=2.5,  # ≈ 320 s: below the 600 s filter
            walltime_log10_sigma=0.08,
            memory_min=50 * MB,
            memory_max=90 * MB,
            neighbors=6,
            halo_kbytes_mean=1000.0,
            asynchronous=True,
            serial_fraction_range=(0.02, 0.08),
        ),
        _app(
            name="matmul_benchmark",
            kernel_name="matmul_blocked",
            description="Single-node blocked matmul runs (§5's 240 Mflops anchor; short)",
            popularity=0.03,
            node_choices=(1,),
            node_weights=(1.0,),
            flops_per_iter_log10_mean=9.0,
            flops_per_iter_log10_sigma=0.2,
            walltime_log10_mean=2.45,
            walltime_log10_sigma=0.08,  # always < 600 s: outside the Fig 3 filter
            memory_min=5 * MB,
            memory_max=30 * MB,
            ilp_jitter=0.005,
            mem_ratio_jitter=0.03,
            fma_jitter=0.005,
        ),
    )
}


def application(name: str) -> ApplicationTemplate:
    try:
        return APPLICATIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown application {name!r}; known: {sorted(APPLICATIONS)}"
        ) from None


def popularity_weights() -> tuple[list[str], np.ndarray]:
    """(names, normalized submission weights) for the submission model."""
    names = sorted(APPLICATIONS)
    w = np.array([APPLICATIONS[n].popularity for n in names])
    return names, w / w.sum()
