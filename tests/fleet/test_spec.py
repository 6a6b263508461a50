"""FleetSpec / MemberSpec validation and round-trip behavior."""

import hashlib

import pytest
from hypothesis import given, settings

from repro.fleet.spec import PRESETS, FleetSpec, MemberSpec, preset
from repro.sweep.spec import SweepSpec
from tests.spec_fuzz import assert_loads_or_refuses, mutated

#: sha256 of ``repr(spec.member_config(member))`` for every preset
#: member.  Member configs feed checkpoint fingerprints, so a pin moves
#: only when a resolved config's repr does.
PINNED_MEMBER_CONFIGS = {
    ("demo2", "west"): "7369034766ddfa9127abded78e283e31f0ccb67c17968602ca067f459b402a1d",
    ("demo2", "east"): "784a559e32aa7e2cfc4a5e3de8fd307cdb0b4121a4f53e8842ea5fdbd9513e89",
    ("demo3", "lewis"): "9bc97da65b27101dee68c5f76e77f3f18969aa1a51ed659a4ee2b0cd4d41a906",
    ("demo3", "ames"): "a2083ee4c3cc2a80ff303b83455ccce01e5f8d5e4290ba8c05bd11fd12144dfb",
    ("demo3", "langley"): "be6779d746751e70bd7337febf87eba78960029f3284ce276eea72a8a247dc01",
}


def two_members():
    return (
        MemberSpec(name="west", n_nodes=32),
        MemberSpec(name="east", n_nodes=64, memory_mb=64, fault_profile="mild"),
    )


class TestMemberValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="name cannot be empty"):
            MemberSpec(name="", n_nodes=16)

    @pytest.mark.parametrize("n", [0, -4])
    def test_nonpositive_nodes_rejected(self, n):
        with pytest.raises(ValueError, match="'n_nodes' value must be positive"):
            MemberSpec(name="x", n_nodes=n)

    def test_unknown_fault_profile_names_available(self):
        with pytest.raises(ValueError, match="'fault_profile' value 'bogus' is not one of") as exc:
            MemberSpec(name="x", n_nodes=16, fault_profile="bogus")
        assert "mild" in str(exc.value)

    @pytest.mark.parametrize("field", ["memory_mb"])
    def test_nonpositive_overrides_rejected(self, field):
        with pytest.raises(ValueError, match=f"'{field}' value must be positive"):
            MemberSpec(name="x", n_nodes=16, **{field: 0})

    def test_default_member_uses_reference_machine(self):
        m = MemberSpec(name="x", n_nodes=16)
        assert m.settings() == {"n_nodes": 16}
        cfg = FleetSpec(members=(m,)).member_config(m)
        assert cfg.machine_config is None
        assert cfg.fault_profile is None

    def test_overrides_produce_configs(self):
        m = MemberSpec(name="x", n_nodes=16, memory_mb=64)
        cfg = FleetSpec(members=(m,)).member_config(m)
        assert cfg.machine_config.memory_bytes == 64 * 1024 * 1024

    def test_member_keys_are_checked_as_sweep_axes(self):
        """One vocabulary: a member key is refused where a sweep's base
        setting of the same name would be, with the same wording."""
        from repro.core.study import AXES

        for key in MemberSpec.__dataclass_fields__:
            if key != "name":
                assert key in AXES
        with pytest.raises(ValueError, match="'memory_mb' value must be an integer"):
            MemberSpec(name="x", n_nodes=16, memory_mb="lots")

    @pytest.mark.parametrize("key", ["tlb_entries", "switch_latency_us", "switch_bandwidth_mb_s"])
    def test_knobs_that_moved_nothing_are_unknown_keys(self, key):
        """Every member runs the POWER2/590's 512-entry TLB on the SP2
        switch: a member key for either would move no metric."""
        data = PRESETS["demo2"].to_dict()
        data["members"][0][key] = 1024
        with pytest.raises(ValueError, match=f"^unknown member spec keys: {key}$"):
            FleetSpec.from_dict(data)
        with pytest.raises(TypeError, match=key):
            MemberSpec(name="x", n_nodes=16, **{key: 1024})


class TestFleetValidation:
    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError, match="at least one member"):
            FleetSpec(members=())

    def test_duplicate_member_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate member names: west"):
            FleetSpec(
                members=(
                    MemberSpec(name="west", n_nodes=16),
                    MemberSpec(name="west", n_nodes=32),
                )
            )

    @pytest.mark.parametrize("field", ["n_days", "n_users"])
    def test_nonpositive_scalars_rejected(self, field):
        message = f"fleet setting '{field}' value must be positive, got 0"
        with pytest.raises(ValueError, match=message):
            FleetSpec(members=two_members(), **{field: 0})

    def test_negative_seed_rejected(self):
        with pytest.raises(
            ValueError, match="^fleet setting 'seed' value must be non-negative, got -1$"
        ):
            FleetSpec(members=two_members(), seed=-1)
        assert FleetSpec(members=two_members(), seed=0).seed == 0

    @pytest.mark.parametrize(
        "key, value", [("seed", -1), ("n_days", 0), ("n_users", 2.5), ("demand_mean", "high")]
    )
    def test_fleet_scalars_share_the_sweep_wording(self, key, value):
        """A fleet's own settings are refused in the words a sweep's base
        uses for the same axis; only the ``where`` prefix differs."""
        with pytest.raises(ValueError) as fleet:
            FleetSpec(members=two_members(), **{key: value})
        with pytest.raises(ValueError) as sweep:
            SweepSpec.from_dict({"name": "s", "base": {key: value}})
        assert str(fleet.value).startswith("fleet setting ")
        assert str(sweep.value).startswith("base setting ")
        assert (
            str(fleet.value).removeprefix("fleet setting ")
            == str(sweep.value).removeprefix("base setting ")
        )

    def test_unknown_routing_rejected(self):
        with pytest.raises(ValueError, match="unknown routing policy 'random'") as exc:
            FleetSpec(members=two_members(), routing="random")
        assert "least-loaded" in str(exc.value)

    def test_nonpositive_demand_mean_rejected(self):
        with pytest.raises(ValueError, match="'demand_mean' value must be positive"):
            FleetSpec(members=two_members(), demand_mean=0.0)

    def test_total_nodes_and_member_lookup(self):
        spec = FleetSpec(members=two_members())
        assert spec.total_nodes == 96
        assert spec.member("east").memory_mb == 64
        with pytest.raises(KeyError):
            spec.member("nowhere")


class TestMemberConfig:
    def test_member_inherits_fleet_scalars(self):
        spec = FleetSpec(members=two_members(), seed=9, n_days=7, n_users=11)
        cfg = spec.member_config(spec.member("east"))
        assert cfg.seed == 9
        assert cfg.n_days == 7
        assert cfg.n_users == 11
        assert cfg.n_nodes == 64
        assert cfg.machine_config.memory_bytes == 64 * 1024 * 1024
        assert cfg.fault_profile is not None and not cfg.fault_profile.is_null

    def test_preset_member_configs_are_pinned(self):
        configs = {
            (name, m.name): spec.member_config(m)
            for name, spec in PRESETS.items()
            for m in spec.members
        }
        assert {
            key: hashlib.sha256(repr(cfg).encode()).hexdigest()
            for key, cfg in configs.items()
        } == PINNED_MEMBER_CONFIGS

    def test_plain_member_config_matches_single_machine_defaults(self):
        spec = FleetSpec(members=(MemberSpec(name="solo", n_nodes=144),), seed=2)
        cfg = spec.member_config(spec.members[0])
        assert cfg.machine_config is None
        assert cfg.fault_profile is None


class TestRoundTrip:
    def test_dict_round_trip(self):
        spec = FleetSpec(
            members=two_members(), name="pair", seed=4, n_days=9, routing="round-robin"
        )
        assert FleetSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_fleet_key_rejected(self):
        data = FleetSpec(members=two_members()).to_dict()
        data["colour"] = "red"
        with pytest.raises(ValueError, match="unknown fleet spec keys: colour"):
            FleetSpec.from_dict(data)

    def test_unknown_member_key_rejected(self):
        data = FleetSpec(members=two_members()).to_dict()
        data["members"][0]["gpu_count"] = 8
        with pytest.raises(ValueError, match="unknown member spec keys: gpu_count"):
            FleetSpec.from_dict(data)

    def test_accrual_backend_key_rejected(self):
        data = FleetSpec(members=two_members()).to_dict()
        data["accrual_backend"] = "scalar"
        with pytest.raises(ValueError, match="unknown fleet spec keys: accrual_backend"):
            FleetSpec.from_dict(data)
        data = FleetSpec(members=two_members()).to_dict()
        data["members"][0]["accrual_backend"] = "scalar"
        with pytest.raises(ValueError, match="unknown member spec keys: accrual_backend"):
            FleetSpec.from_dict(data)

    def test_missing_members_rejected(self):
        with pytest.raises(ValueError, match="non-empty 'members'"):
            FleetSpec.from_dict({"name": "empty"})


class TestPresets:
    def test_presets_are_valid_and_heterogeneous(self):
        for name, spec in PRESETS.items():
            assert preset(name) == spec
            assert len(spec.members) >= 2
        demo3 = preset("demo3")
        assert {m.n_nodes for m in demo3.members} == {64, 144, 256}
        assert {m.fault_profile for m in demo3.members} == {
            "mild",
            "none",
            "pathological",
        }

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown fleet preset"):
            preset("demo99")


class TestLoaderFuzz:
    DEMO2 = PRESETS["demo2"].to_dict()
    PATHS = (
        [(f,) for f in FleetSpec.__dataclass_fields__]
        + [("members", i) for i in range(2)]
        + [("members", i, f) for i in range(2) for f in MemberSpec.__dataclass_fields__]
    )

    @settings(max_examples=300, deadline=None)
    @given(document=mutated(DEMO2, PATHS))
    def test_mutated_spec_loads_or_is_refused_in_one_line(self, document):
        """Wrongly typed fields (``n_nodes: ""``, ``members: 3``,
        ``n_users: null``, a non-string member name) are refused with a
        ValueError, not a TypeError, and every spec that loads builds
        each member's config."""
        spec = assert_loads_or_refuses(FleetSpec.from_dict, document)
        if spec is not None:
            for member in spec.members:
                spec.member_config(member)
