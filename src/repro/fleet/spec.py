"""Declarative fleet description: N heterogeneous SP2-class machines.

The paper measured exactly one 144-node SP2; its modern descendants
(XDMoD's NSF-wide workload analysis, the Blue Waters workload report)
measure *fleets* of heterogeneous centers and compare workloads across
them.  A :class:`FleetSpec` is the declarative counterpart of
:class:`repro.core.study.StudyConfig` at fleet scale: a shared user
population and demand model, a job-routing policy, and one
:class:`MemberSpec` per machine — node count, memory size and fault
profile per member.

A member's keys are sweep axes (:data:`repro.core.study.AXES`) with the
same checks, and :func:`repro.core.study.resolve_config` builds each
member's config.  Both specs are frozen and validated at construction:
bad day counts, node counts, memory sizes, routing or fault-profile
names fail with a ``ValueError`` naming the offending value, not a
traceback deep inside the sim.  They round-trip through plain dicts so
fleet definitions can live in JSON files.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Mapping

from repro.core.study import AXES, StudyConfig, resolve_config
from repro.util.checks import describe, describe_names

#: Routing policies :mod:`repro.fleet.routing` implements.
ROUTING_POLICIES = ("home-center", "least-loaded", "round-robin")


@dataclass(frozen=True)
class MemberSpec:
    """One machine of the fleet.

    Every field but ``name`` is a named setting of
    :data:`repro.core.study.AXES`, checked as a sweep checks it.
    ``memory_mb`` defaults to ``None`` = the NAS SP2's 128 MB, so a
    member that only states a node count is a smaller-or-larger NAS
    machine: POWER2/590 nodes on the 45 µs / 34 MB/s switch.
    """

    name: str
    n_nodes: int
    #: Named fault profile (:data:`repro.faults.profile.PROFILES`).
    fault_profile: str = "none"
    #: Per-node memory (MB); the §6 paging pathologies scale with this.
    memory_mb: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name.strip():
            raise ValueError(
                f"member name cannot be empty or a non-string, got {describe(self.name)}"
            )
        for key, value in self.settings().items():
            AXES[key].check(value, where=f"member {describe(self.name)} setting")

    def settings(self) -> dict[str, Any]:
        """The node count and every setting that differs from the NAS
        SP2's, by axis name, in field order."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "name" and getattr(self, f.name) != f.default
        }

    def to_dict(self) -> dict:
        return {"name": self.name, **self.settings()}

    @classmethod
    def from_dict(cls, data: dict) -> "MemberSpec":
        if not isinstance(data, Mapping) or not {"name", "n_nodes"} <= set(data):
            raise ValueError(
                f"a fleet member must map 'name' and 'n_nodes', got {describe(data)}"
            )
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(
                f"unknown member spec keys: {describe_names(sorted(unknown))}"
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
            raise ValueError(f"duplicate member names: {describe_names(dupes)}")
        if not isinstance(self.name, str) or not self.name.strip():
            raise ValueError(
                f"fleet name cannot be empty or a non-string, got {describe(self.name)}"
            )
        # The fleet-wide settings are axes too, checked as a sweep's base
        # checks them (demand_mean may be left unset).
        for key in ("seed", "n_days", "n_users", "demand_mean"):
            value = getattr(self, key)
            if value is not None or key != "demand_mean":
                AXES[key].check(value, where="fleet setting")
        if self.routing not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {describe(self.routing)}; available: "
                f"{', '.join(ROUTING_POLICIES)}"
            )

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
        return resolve_config(
            {
                "seed": self.seed,
                "n_days": self.n_days,
                "n_users": self.n_users,
                "demand_mean": self.demand_mean,
                **member.settings(),
            }
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
            raise ValueError(f"unknown fleet spec keys: {describe_names(sorted(unknown))}")
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
    memory-starved center, the NAS reference machine, and a large
    center with roomy nodes but an unreliable first year."""
    return FleetSpec(
        name="demo3",
        members=(
            MemberSpec(name="lewis", n_nodes=64, memory_mb=64, fault_profile="mild"),
            MemberSpec(name="ames", n_nodes=144),
            MemberSpec(
                name="langley", n_nodes=256, memory_mb=256, fault_profile="pathological"
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
