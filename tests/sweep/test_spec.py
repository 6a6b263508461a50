"""SweepSpec validation: every bad spec dies with a one-line error."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

from repro.sweep import (
    AXES,
    RepeatSpec,
    SweepSpec,
    load_spec_file,
    parse_simple_yaml,
    resolve_config,
)
from tests.spec_fuzz import assert_loads_or_refuses, mutated

BASE = {"n_days": 2, "n_nodes": 16, "n_users": 6, "seed": 3}

#: Settings that moved no metric, with a value each once took.
REMOVED_KNOBS = {"tlb_entries": 1024, "switch_latency_us": 90.0, "switch_bandwidth_mb_s": 17.0}


def make(**kw):
    kw.setdefault("name", "t")
    kw.setdefault("base", dict(BASE))
    kw.setdefault("axes", {"page_kb": [4, 16]})
    return SweepSpec.from_dict(kw)


class TestValidation:
    def test_valid_spec_builds(self):
        spec = make()
        assert spec.n_cells == 2

    def test_unknown_axis_is_one_line_error(self):
        with pytest.raises(ValueError, match="unknown axis 'page_kbz'") as e:
            make(axes={"page_kbz": [4]})
        assert "\n" not in str(e.value).replace("known axes:", "")

    def test_unknown_base_key(self):
        with pytest.raises(ValueError, match="unknown base setting 'n_dayz'"):
            make(base={"n_dayz": 2})

    def test_accrual_backend_is_not_a_setting(self):
        with pytest.raises(ValueError, match="unknown base setting 'accrual_backend'"):
            make(base={**BASE, "accrual_backend": "scalar"})
        with pytest.raises(ValueError, match="unknown axis 'accrual_backend'"):
            make(axes={"accrual_backend": ["scalar", "vectorized"]})
        assert "accrual_backend" not in AXES

    def test_wrong_type_value(self):
        with pytest.raises(ValueError, match="page_kb"):
            make(axes={"page_kb": [4, "lots"]})

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_value(self, value):
        # An infinite paging-fault limit would overflow a node counter mid-run.
        with pytest.raises(ValueError, match="'paging_fault_limit' value must be finite"):
            make(axes={"paging_fault_limit": [value]})

    def test_bool_is_not_an_int(self):
        with pytest.raises(ValueError, match="page_kb"):
            make(axes={"page_kb": [True]})

    def test_axis_collides_with_base(self):
        with pytest.raises(
            ValueError, match="axis 'seed' also appears as a fixed base setting"
        ):
            make(axes={"seed": [1, 2]})

    def test_empty_axis_is_empty_cross_product(self):
        with pytest.raises(
            ValueError, match="axis 'page_kb' has no values"
        ):
            make(axes={"page_kb": []})

    def test_one_axis_sweep_with_no_values(self):
        # The shape benchmarks/bench_sensitivity.py builds: a bare spec,
        # one axis, the caller's list of values.
        with pytest.raises(ValueError, match="axis 'demand_mean' has no values"):
            SweepSpec(name="demand_mean", base={"seed": 1}, axes={"demand_mean": []})

    def test_non_list_axis(self):
        with pytest.raises(ValueError, match="must list its values"):
            make(axes={"page_kb": 4})

    def test_duplicate_values_within_axis(self):
        with pytest.raises(ValueError, match="duplicate value"):
            make(axes={"page_kb": [4, 4]})

    def test_unknown_choice(self):
        with pytest.raises(ValueError, match="fault_profile"):
            make(axes={"fault_profile": ["catastrophic"]})

    def test_negative_axis_value(self):
        with pytest.raises(ValueError, match="n_days"):
            make(axes={"n_days": [-1]})

    def test_seed_zero_is_legal(self):
        spec = make(base={}, axes={"seed": [0, 1]})
        assert spec.n_cells == 2

    def test_baseline_must_use_axis_values(self):
        with pytest.raises(ValueError, match="baseline"):
            make(baseline={"page_kb": 8})

    def test_baseline_unknown_axis(self):
        with pytest.raises(ValueError, match="baseline"):
            make(baseline={"memory_mb": 64})

    def test_seed_axis_conflicts_with_repeat(self):
        with pytest.raises(ValueError, match="seed"):
            make(
                base={},
                axes={"seed": [0, 1]},
                repeat={"seeds": [1, 2]},
            )

    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError, match="unknown"):
            make(extra_knob=1)

    def test_errors_are_single_line(self):
        cases = [
            dict(axes={"bogus": [1]}),
            dict(axes={"page_kb": [4, "x"]}),
            dict(axes={"seed": [1]}),
            dict(axes={"page_kb": []}),
            dict(axes={"page_kb": [4, 4]}),
        ]
        for kw in cases:
            with pytest.raises(ValueError) as e:
                make(**kw)
            assert "\n" not in str(e.value), kw


class TestRepeatSpec:
    def test_seeds_mode(self):
        r = RepeatSpec.from_dict({"seeds": [1, 2, 3]})
        assert r.seeds == (1, 2, 3) and r.target_rse is None

    def test_adaptive_mode(self):
        r = RepeatSpec.from_dict({"target_rse": 0.1, "max_repeats": 8})
        assert r.target_rse == 0.1

    def test_needs_one_mode(self):
        with pytest.raises(ValueError, match="repeat"):
            RepeatSpec.from_dict({})

    def test_not_both_modes(self):
        with pytest.raises(ValueError, match="repeat"):
            RepeatSpec.from_dict({"seeds": [1], "target_rse": 0.1})

    def test_duplicate_seeds(self):
        with pytest.raises(ValueError, match="seed"):
            RepeatSpec.from_dict({"seeds": [1, 1]})

    def test_token_is_stable(self):
        a = RepeatSpec.from_dict({"seeds": [1, 2]})
        b = RepeatSpec.from_dict({"seeds": [1, 2]})
        assert a.token() == b.token()


class TestResolveConfig:
    def test_defaults_match_study_defaults(self):
        # resolve_config's empty-assignment default is the 30-day CLI
        # default, not StudyConfig's 270-day paper horizon; everything
        # else matches StudyConfig() exactly.
        from repro.core.study import StudyConfig

        assert resolve_config({}) == StudyConfig(n_days=30)

    def test_machine_knobs_build_machine_config(self):
        cfg = resolve_config({"page_kb": 16, "memory_mb": 256})
        assert cfg.machine_config.tlb.entries == 512
        assert cfg.machine_config.tlb.page_bytes == 16 * 1024
        assert cfg.machine_config.memory_bytes == 256 * 1024 * 1024

    def test_memory_mb_moves_only_memory_bytes(self):
        from dataclasses import replace

        from repro.power2.config import POWER2_590

        cfg = resolve_config({"memory_mb": 256})
        assert cfg.machine_config == replace(POWER2_590, memory_bytes=256 * 1024 * 1024)

    @pytest.mark.parametrize("name", sorted(REMOVED_KNOBS))
    def test_knobs_that_moved_nothing_are_refused(self, name):
        """No job's cost reads the TLB entry count or the switch
        constants, so they are unknown settings, not inert ones."""
        value = REMOVED_KNOBS[name]
        assert name not in AXES
        with pytest.raises(ValueError, match=f"^unknown setting '{name}'; known axes: "):
            resolve_config({name: value})
        with pytest.raises(ValueError, match=f"^unknown axis '{name}'"):
            make(axes={name: [value]})
        with pytest.raises(ValueError, match=f"^unknown base setting '{name}'"):
            make(base={**BASE, name: value})

    def test_fault_profile_by_name(self):
        cfg = resolve_config({"fault_profile": "pathological"})
        assert cfg.fault_profile.name == "pathological"
        assert resolve_config({"fault_profile": None}).fault_profile is None

    def test_scheduler_knobs(self):
        cfg = resolve_config({"scheduler_policy": "fifo", "scheduler_wide_threshold": 8})
        assert cfg.scheduler_policy == "fifo"
        assert cfg.scheduler_wide_threshold == 8

    def test_demand_mean(self):
        assert resolve_config({"demand_mean": 0.5}).demand_mean == 0.5
        assert resolve_config({"demand_mean": None}).demand_mean is None

    def test_unknown_setting(self):
        with pytest.raises(ValueError, match="unknown setting 'warp_factor'; known axes: "):
            resolve_config({"warp_factor": 9.0})

    def test_paging_fault_limit(self):
        from repro.power2.config import POWER2_590

        cfg = resolve_config({"paging_fault_limit": 40.0, "memory_mb": 256})
        assert cfg.machine_config.paging_fault_limit == 40.0
        assert cfg.machine_config.memory_bytes == 256 * 1024 * 1024
        # The paper's own limit, spelled out, is the reference machine.
        assert resolve_config({"paging_fault_limit": 110}).machine_config == POWER2_590

    def test_non_power_of_two_page_is_refused(self):
        with pytest.raises(ValueError, match="power of two, got 3072 bytes"):
            resolve_config({"page_kb": 3})

    def test_every_declared_axis_resolves(self):
        for name, axis in AXES.items():
            value = axis.choices[0] if axis.choices else 2
            if name == "demand_mean":
                value = 0.5
            resolve_config({name: value})


class TestLoaders:
    def test_json_roundtrip(self, tmp_path):
        spec = make(baseline={"page_kb": 16})
        p = tmp_path / "s.json"
        p.write_text(json.dumps(spec.to_dict()))
        assert load_spec_file(str(p)).to_dict() == spec.to_dict()

    def test_yaml_subset(self, tmp_path):
        p = tmp_path / "s.yaml"
        p.write_text(
            "# comment\n"
            "name: demo\n"
            "base:\n"
            "  n_days: 2\n"
            "  n_nodes: 16\n"
            "  n_users: 6\n"
            "axes:\n"
            "  page_kb: [4, 16]\n"
            "  fault_profile:\n"
            "    - none\n"
            "    - pathological\n"
            "repeat:\n"
            "  seeds: [1, 2]\n"
        )
        spec = load_spec_file(str(p))
        assert spec.name == "demo"
        assert spec.axes["page_kb"] == [4, 16]
        assert spec.axes["fault_profile"] == [None, "pathological"]
        assert spec.repeat.seeds == (1, 2)

    def test_yaml_scalars(self):
        doc = parse_simple_yaml(
            "a: 1\nb: 1.5\nc: true\nd: null\ne: 'quoted # not comment'\nf: plain\n"
        )
        assert doc == {
            "a": 1,
            "b": 1.5,
            "c": True,
            "d": None,
            "e": "quoted # not comment",
            "f": "plain",
        }

    def test_yaml_rejects_tabs(self):
        with pytest.raises(ValueError, match="tab"):
            parse_simple_yaml("a:\n\tb: 1\n")

    def test_yaml_rejects_duplicate_keys(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_simple_yaml("a: 1\na: 2\n")

    def test_missing_file_is_one_line_error(self):
        with pytest.raises(ValueError, match="cannot read sweep spec"):
            load_spec_file("/nonexistent/spec.yaml")


#: CI's sweep-smoke spec (.github/workflows/ci.yml), as a document.
CI_SMOKE = {
    "name": "ci-smoke",
    "base": {"n_days": 4, "n_nodes": 144, "n_users": 60},
    "axes": {"fault_profile": ["none", "mild", "pathological"], "page_kb": [4, 16]},
    "baseline": {"fault_profile": "none", "page_kb": 4},
    "repeat": {"seeds": [1, 2, 3]},
}


class TestLoaderFuzz:
    PATHS = (
        [(f,) for f in SweepSpec.__dataclass_fields__]
        + [("repeat", f) for f in RepeatSpec.__dataclass_fields__]
        + [("repeat", "seeds", 0)]
        + [(block, key) for block in ("base", "axes", "baseline") for key in CI_SMOKE[block]]
        + [("axes", "page_kb", 0)]
    )

    def test_smoke_spec_loads(self):
        assert SweepSpec.from_dict(CI_SMOKE).n_cells == 6

    @settings(max_examples=300, deadline=None)
    @given(document=mutated(CI_SMOKE, PATHS))
    def test_mutated_spec_loads_or_is_refused_in_one_line(self, document):
        """Wrongly typed fields (``shard_days: ten``, ``repeat.batch:
        two``) are refused with a ValueError, not a TypeError."""
        assert_loads_or_refuses(SweepSpec.from_dict, document)
