"""Fault profiles: the campaign's failure environment as data.

Bergeron's worst days were *pathology* days — paging storms, unreachable
nodes, collector gaps (§6) — and production workload studies treat those
as first-class behaviour, not noise.  A :class:`FaultProfile` describes
the failure environment of one campaign: per-node crash/repair processes
(MTBF/MTTR), switch-degradation episodes, paging-storm episodes, and
collector-sample dropouts.  The profile is pure data — frozen, picklable
and hashable — so it can ride inside :class:`repro.core.study.StudyConfig`
and cross process boundaries to shard workers unchanged.

The actual event times are drawn by :mod:`repro.faults.schedule` from a
named RNG stream tree, so a campaign's fault history is a pure function
of ``(seed, profile)`` — and, in sharded execution, of
``(seed, shard_id, profile)`` (see docs/FAULTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class FaultProfile:
    """The failure environment for one campaign.

    Every process is disabled by setting its rate parameter to ``0``
    (the default), so ``FaultProfile()`` is the all-healthy null profile
    and a default campaign remains byte-identical to one with no fault
    machinery at all.
    """

    name: str = "custom"
    #: Mean time between crashes *per node*, in days (0 = no crashes).
    node_mtbf_days: float = 0.0
    #: Mean repair time per crash, in hours.
    node_mttr_hours: float = 4.0
    #: Mean time between switch-degradation episodes, in days (0 = off).
    switch_mtbf_days: float = 0.0
    #: Mean episode duration, in hours.
    switch_mttr_hours: float = 2.0
    #: During an episode, latency is multiplied and bandwidth divided by
    #: this factor (must be >= 1).
    switch_degradation: float = 4.0
    #: Mean time between paging-storm episodes, in days (0 = off).
    storm_mtbf_days: float = 0.0
    #: Mean storm duration, in hours.
    storm_duration_hours: float = 3.0
    #: During a storm, every newly started job's per-node memory demand
    #: is multiplied by this factor (>= 1) — the §6 oversubscription
    #: pathology, injected rather than waiting for an unlucky mix.
    storm_memory_pressure: float = 1.35
    #: Probability that any given 15-minute collector pass is lost.
    collector_dropout_rate: float = 0.0
    #: How many times a job killed by a node crash is requeued before
    #: PBS gives up on it.
    max_job_retries: int = 3

    def __post_init__(self) -> None:
        for f in (
            "node_mtbf_days",
            "node_mttr_hours",
            "switch_mtbf_days",
            "switch_mttr_hours",
            "storm_mtbf_days",
            "storm_duration_hours",
        ):
            if getattr(self, f) < 0:
                raise ValueError(f"{f} cannot be negative")
        if self.switch_degradation < 1.0:
            raise ValueError("switch_degradation must be >= 1")
        if self.storm_memory_pressure < 1.0:
            raise ValueError("storm_memory_pressure must be >= 1")
        if not 0.0 <= self.collector_dropout_rate < 1.0:
            raise ValueError("collector_dropout_rate must be in [0, 1)")
        if self.max_job_retries < 0:
            raise ValueError("max_job_retries cannot be negative")

    @property
    def is_null(self) -> bool:
        """True when no fault process is enabled."""
        return (
            self.node_mtbf_days == 0.0
            and self.switch_mtbf_days == 0.0
            and self.storm_mtbf_days == 0.0
            and self.collector_dropout_rate == 0.0
        )

    @classmethod
    def named(cls, name: str) -> "FaultProfile":
        """Look up a preset profile by name."""
        try:
            return PROFILES[name]
        except KeyError:
            raise ValueError(
                f"unknown fault profile {name!r}; available: "
                f"{', '.join(sorted(PROFILES))}"
            ) from None

    @classmethod
    def resolve(cls, profile: "FaultProfile | str | None") -> "FaultProfile | None":
        """The profile a campaign arms: a preset name or a profile in,
        ``None`` out for a healthy run (no profile, or a null one)."""
        if isinstance(profile, str):
            profile = cls.named(profile)
        return None if profile is None or profile.is_null else profile

    def describe(self) -> str:
        """One line per enabled process (operator-facing)."""
        lines = [f"fault profile {self.name!r}:"]
        if self.node_mtbf_days:
            lines.append(
                f"  node crashes : MTBF {self.node_mtbf_days:g} days/node, "
                f"MTTR {self.node_mttr_hours:g} h"
            )
        if self.switch_mtbf_days:
            lines.append(
                f"  switch       : MTBF {self.switch_mtbf_days:g} days, "
                f"episodes {self.switch_mttr_hours:g} h at {self.switch_degradation:g}x"
            )
        if self.storm_mtbf_days:
            lines.append(
                f"  paging storms: MTBF {self.storm_mtbf_days:g} days, "
                f"{self.storm_duration_hours:g} h at {self.storm_memory_pressure:g}x memory"
            )
        if self.collector_dropout_rate:
            lines.append(
                f"  collector    : {self.collector_dropout_rate:.2%} of passes dropped"
            )
        if self.is_null:
            lines.append("  (all processes disabled)")
        lines.append(f"  job retries  : up to {self.max_job_retries} per killed job")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: Named presets.  ``none`` is the explicit null; ``mild`` is an
#: ordinary production month; ``pathological`` reproduces the paper's
#: bad-week texture — frequent crashes, storms and collector gaps.
PROFILES: dict[str, FaultProfile] = {
    "none": FaultProfile(name="none"),
    "mild": FaultProfile(
        name="mild",
        node_mtbf_days=180.0,
        node_mttr_hours=2.0,
        switch_mtbf_days=120.0,
        switch_mttr_hours=1.0,
        switch_degradation=2.0,
        storm_mtbf_days=60.0,
        storm_duration_hours=2.0,
        storm_memory_pressure=1.25,
        collector_dropout_rate=0.002,
    ),
    "pathological": FaultProfile(
        name="pathological",
        node_mtbf_days=30.0,
        node_mttr_hours=6.0,
        switch_mtbf_days=20.0,
        switch_mttr_hours=4.0,
        switch_degradation=6.0,
        storm_mtbf_days=10.0,
        storm_duration_hours=6.0,
        storm_memory_pressure=1.6,
        collector_dropout_rate=0.01,
    ),
}
