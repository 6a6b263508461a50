"""Declarative fleet description: N heterogeneous SP2-class machines.

The paper measured exactly one 144-node SP2; its modern descendants
(XDMoD's NSF-wide workload analysis, the Blue Waters workload report)
measure *fleets* of heterogeneous centers and compare workloads across
them.  A :class:`FleetSpec` is the declarative counterpart of
:class:`repro.core.study.StudyConfig` at fleet scale: a shared user
population and demand model, a job-routing policy, and one
:class:`MemberSpec` per machine — node count, memory size, TLB shape,
switch characteristics and fault profile all per member.

Both specs are frozen, validated at construction (bad day counts, node
counts, routing or fault-profile names fail with a ``ValueError`` naming
the offending value, not a traceback deep inside the sim), and round-trip
through plain dicts so fleet definitions can live in JSON files.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from repro.core.study import StudyConfig
from repro.faults.profile import PROFILES, FaultProfile
from repro.power2.config import POWER2_590, MachineConfig, SwitchConfig, TLBGeometry
from repro.util.checks import check_number

#: Routing policies :mod:`repro.fleet.routing` implements.
ROUTING_POLICIES = ("home-center", "least-loaded", "round-robin")

MB = 1024 * 1024


@dataclass(frozen=True)
class MemberSpec:
    """One machine of the fleet.

    Overrides default to ``None`` = the NAS SP2 value (POWER2/590 nodes,
    45 µs / 34 MB/s switch), so a member that only states a node count is
    a smaller-or-larger NAS machine.
    """

    name: str
    n_nodes: int
    #: Named fault profile (:data:`repro.faults.profile.PROFILES`).
    fault_profile: str = "none"
    #: Per-node memory (MB); the §6 paging pathologies scale with this.
    memory_mb: int | None = None
    #: TLB entries per node (power-of-two sized machines shipped 512).
    tlb_entries: int | None = None
    #: Switch fabric overrides.
    switch_latency_us: float | None = None
    switch_bandwidth_mb_s: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name.strip():
            raise ValueError(f"member name cannot be empty or a non-string, got {self.name!r}")
        check_number(self.n_nodes, f"member {self.name!r}: n_nodes", integer=True)
        if not isinstance(self.fault_profile, str) or self.fault_profile not in PROFILES:
            raise ValueError(
                f"member {self.name!r}: unknown fault profile "
                f"{self.fault_profile!r}; available: {', '.join(sorted(PROFILES))}"
            )
        for fname in ("memory_mb", "tlb_entries", "switch_latency_us", "switch_bandwidth_mb_s"):
            value = getattr(self, fname)
            if value is not None:
                check_number(
                    value, f"member {self.name!r}: {fname}",
                    integer=fname in ("memory_mb", "tlb_entries"),
                )

    # ------------------------------------------------------------------
    # Concrete configuration objects
    # ------------------------------------------------------------------
    def machine_config(self) -> MachineConfig | None:
        """The member's per-node constants (None = POWER2/590 defaults)."""
        if self.memory_mb is None and self.tlb_entries is None:
            return None
        cfg = POWER2_590
        if self.memory_mb is not None:
            cfg = replace(cfg, memory_bytes=self.memory_mb * MB)
        if self.tlb_entries is not None:
            cfg = replace(cfg, tlb=TLBGeometry(entries=self.tlb_entries))
        return cfg

    def switch_config(self) -> SwitchConfig | None:
        """The member's switch fabric (None = SP2 HPS defaults)."""
        if self.switch_latency_us is None and self.switch_bandwidth_mb_s is None:
            return None
        base = SwitchConfig()
        return SwitchConfig(
            latency_seconds=(
                self.switch_latency_us * 1e-6
                if self.switch_latency_us is not None
                else base.latency_seconds
            ),
            bandwidth_bytes_per_s=(
                self.switch_bandwidth_mb_s * 1e6
                if self.switch_bandwidth_mb_s is not None
                else base.bandwidth_bytes_per_s
            ),
        )

    def fault_profile_obj(self) -> FaultProfile | None:
        return FaultProfile.resolve(self.fault_profile)

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "n_nodes": self.n_nodes}
        if self.fault_profile != "none":
            out["fault_profile"] = self.fault_profile
        for fname in ("memory_mb", "tlb_entries", "switch_latency_us", "switch_bandwidth_mb_s"):
            value = getattr(self, fname)
            if value is not None:
                out[fname] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "MemberSpec":
        if not isinstance(data, Mapping) or not {"name", "n_nodes"} <= set(data):
            raise ValueError(f"a fleet member must map 'name' and 'n_nodes', got {data!r}")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(
                f"unknown member spec keys: {', '.join(sorted(unknown))}"
            )
        return cls(**data)


@dataclass(frozen=True)
class FleetSpec:
    """A fleet campaign: shared demand, routed onto member machines."""

    members: tuple[MemberSpec, ...]
    name: str = "fleet"
    seed: int = 0
    n_days: int = 30
    #: The *fleet-level* user population; every member draws jobs from
    #: the same users (the "millions of users" axis scales here).
    n_users: int = 60
    #: Cross-machine job routing policy (:data:`ROUTING_POLICIES`).
    routing: str = "home-center"
    demand_mean: float | None = None

    def __post_init__(self) -> None:
        if isinstance(self.members, list):  # tolerate list literals
            object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ValueError("a fleet needs at least one member machine")
        names = [m.name for m in self.members]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate member names: {', '.join(dupes)}")
        if not isinstance(self.name, str) or not self.name.strip():
            raise ValueError(f"fleet name cannot be empty or a non-string, got {self.name!r}")
        check_number(self.seed, "seed", integer=True, positive=False)
        check_number(self.n_days, "n_days", integer=True)
        check_number(self.n_users, "n_users", integer=True)
        if self.routing not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {self.routing!r}; available: "
                f"{', '.join(ROUTING_POLICIES)}"
            )
        if self.demand_mean is not None:
            check_number(self.demand_mean, "demand_mean")

    @property
    def total_nodes(self) -> int:
        """Aggregate fleet capacity; the shared demand model budgets
        node-seconds against this the way one machine budgets against
        its own node count."""
        return sum(m.n_nodes for m in self.members)

    def member(self, name: str) -> MemberSpec:
        for m in self.members:
            if m.name == name:
                return m
        raise KeyError(f"no fleet member named {name!r}")

    def member_config(self, member: MemberSpec) -> StudyConfig:
        """The member's single-machine campaign configuration.

        The member inherits the *fleet* seed: its submission trace comes
        from the routed fleet demand, and its fault schedule from a
        member-name-keyed RNG namespace, so no per-member seed juggling
        is needed — and a single-member fleet is configured identically
        to the plain single-machine study.
        """
        return StudyConfig(
            seed=self.seed,
            n_days=self.n_days,
            n_nodes=member.n_nodes,
            n_users=self.n_users,
            machine_config=member.machine_config(),
            switch_config=member.switch_config(),
            demand_mean=self.demand_mean,
            fault_profile=member.fault_profile_obj(),
        )

    def to_dict(self) -> dict:
        out: dict = {
            "name": self.name,
            "seed": self.seed,
            "n_days": self.n_days,
            "n_users": self.n_users,
            "routing": self.routing,
            "members": [m.to_dict() for m in self.members],
        }
        if self.demand_mean is not None:
            out["demand_mean"] = self.demand_mean
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FleetSpec":
        if not isinstance(data, Mapping):
            raise ValueError(f"fleet spec must be a mapping, got {type(data).__name__}")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown fleet spec keys: {', '.join(sorted(unknown))}")
        payload = dict(data)
        members = payload.pop("members", None)
        if not isinstance(members, (list, tuple)) or not members:
            raise ValueError("fleet spec needs a non-empty 'members' list")
        return cls(
            members=tuple(MemberSpec.from_dict(m) for m in members),
            **payload,
        )


# ----------------------------------------------------------------------
# Presets (the CLI's --preset and the docs' running examples)
# ----------------------------------------------------------------------
def _demo2() -> FleetSpec:
    """A two-machine smoke fleet: small, fast, heterogeneous."""
    return FleetSpec(
        name="demo2",
        members=(
            MemberSpec(name="west", n_nodes=32),
            MemberSpec(name="east", n_nodes=64, memory_mb=64),
        ),
        n_days=5,
        n_users=16,
    )


def _demo3() -> FleetSpec:
    """The three-center heterogeneous fleet the docs analyze: a small
    memory-starved center on a slower fabric, the NAS reference machine,
    and a large center with a fast fabric but an unreliable first year."""
    return FleetSpec(
        name="demo3",
        members=(
            MemberSpec(
                name="lewis",
                n_nodes=64,
                memory_mb=64,
                switch_latency_us=90.0,
                switch_bandwidth_mb_s=17.0,
                fault_profile="mild",
            ),
            MemberSpec(name="ames", n_nodes=144),
            MemberSpec(
                name="langley",
                n_nodes=256,
                memory_mb=256,
                tlb_entries=1024,
                switch_latency_us=30.0,
                switch_bandwidth_mb_s=68.0,
                fault_profile="pathological",
            ),
        ),
        n_days=30,
        n_users=120,
    )


PRESETS: dict[str, "FleetSpec"] = {
    "demo2": _demo2(),
    "demo3": _demo3(),
}


def preset(name: str) -> FleetSpec:
    """Look up a preset fleet by name."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown fleet preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
