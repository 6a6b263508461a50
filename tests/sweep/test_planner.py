"""Plan expansion: ordering, fingerprints, dedup, selectors."""

from __future__ import annotations

import pytest

from repro.sweep import (
    SweepSpec,
    cell_fingerprint,
    parse_selector,
    plan_sweep,
)
from repro.sweep.report import find_cell
from repro.sweep_cli import _resolve_name

BASE = {"n_days": 2, "n_nodes": 16, "n_users": 6, "seed": 3}

#: The fingerprint of the last cell of ``make()``'s plan.  It moves only
#: when the resolved config's repr or the cell format version does.
PINNED_CELL_FINGERPRINT = "0a5262cb42e1eacd60c974476fd23c2378059454e6f28bf110979421f561002a"


def make(**kw):
    kw.setdefault("name", "t")
    kw.setdefault("base", dict(BASE))
    kw.setdefault(
        "axes",
        {"page_kb": [16, 4], "fault_profile": [None, "pathological"]},
    )
    return SweepSpec.from_dict(kw)


class TestExpansion:
    def test_cross_product_size(self):
        plan = plan_sweep(make())
        assert plan.n_cells == 4

    def test_first_axis_varies_slowest(self):
        plan = plan_sweep(make())
        # Default baseline (first values) leads; the rest keep grid
        # order: nested loops with the first axis outermost.
        names = [c.name for c in plan.cells]
        assert names == [
            "page_kb=16,fault_profile=none",
            "page_kb=16,fault_profile=pathological",
            "page_kb=4,fault_profile=none",
            "page_kb=4,fault_profile=pathological",
        ]

    def test_indices_are_sequential(self):
        plan = plan_sweep(make())
        assert [c.index for c in plan.cells] == [0, 1, 2, 3]

    def test_no_axes_single_cell_named_base(self):
        plan = plan_sweep(make(axes={}))
        assert plan.n_cells == 1
        assert plan.cells[0].name == "base"
        assert plan.cells[0].is_baseline

    def test_settings_merge_base_and_overrides(self):
        plan = plan_sweep(make())
        cell = plan.cell("page_kb=4,fault_profile=pathological")
        assert cell.settings["n_days"] == 2
        assert cell.settings["page_kb"] == 4
        assert cell.config.machine_config.tlb.page_bytes == 4096
        assert cell.config.fault_profile.name == "pathological"


class TestBaselineOrdering:
    def test_default_baseline_is_first_values(self):
        plan = plan_sweep(make())
        assert plan.baseline is plan.cells[0]
        assert plan.baseline.overrides == {
            "page_kb": 16,
            "fault_profile": None,
        }

    def test_explicit_baseline_moves_to_front(self):
        plan = plan_sweep(
            make(baseline={"page_kb": 4, "fault_profile": "pathological"})
        )
        assert plan.cells[0].name == "page_kb=4,fault_profile=pathological"
        assert plan.cells[0].is_baseline
        # Grid order preserved for the rest.
        assert [c.name for c in plan.cells[1:]] == [
            "page_kb=16,fault_profile=none",
            "page_kb=16,fault_profile=pathological",
            "page_kb=4,fault_profile=none",
        ]

    def test_exactly_one_baseline(self):
        plan = plan_sweep(make())
        assert sum(c.is_baseline for c in plan.cells) == 1


class TestFingerprints:
    def test_fingerprints_are_unique(self):
        plan = plan_sweep(make())
        fps = [c.fingerprint for c in plan.cells]
        assert len(set(fps)) == len(fps)

    def test_duplicate_fingerprint_is_one_line_error(self):
        # 'none' (the null profile's name) and null resolve to the same
        # config — the planner must refuse, not silently halve the sweep.
        spec = make(axes={"fault_profile": ["none", None]})
        with pytest.raises(ValueError, match="same configuration") as e:
            plan_sweep(spec)
        assert "\n" not in str(e.value)

    def test_fingerprint_ignores_name(self):
        a = plan_sweep(make(name="a")).cells[0]
        b = plan_sweep(make(name="b")).cells[0]
        assert a.fingerprint == b.fingerprint

    def test_fingerprint_includes_shard_days(self):
        a = plan_sweep(make()).cells[0]
        b = plan_sweep(make(shard_days=1)).cells[0]
        assert a.fingerprint != b.fingerprint

    def test_fingerprint_includes_repeat(self):
        a = plan_sweep(make()).cells[0]
        b = plan_sweep(make(repeat={"seeds": [1, 2]})).cells[0]
        c = plan_sweep(make(repeat={"seeds": [1, 2, 3]})).cells[0]
        assert len({a.fingerprint, b.fingerprint, c.fingerprint}) == 3

    def test_fingerprint_direct_matches_plan(self):
        spec = make()
        plan = plan_sweep(spec)
        for cell in plan.cells:
            assert cell_fingerprint(cell.config, spec) == cell.fingerprint

    def test_fingerprint_is_pinned(self):
        """Cached cells are keyed by this hash of the resolved config's
        repr: a changed ``StudyConfig`` field, order or default orphans
        every cache on disk and must show up here, not in the field."""
        cell = plan_sweep(make()).cells[-1]
        assert cell.name == "page_kb=4,fault_profile=pathological"
        assert cell.fingerprint == PINNED_CELL_FINGERPRINT


class TestOnly:
    def test_only_filters_cells(self):
        plan = plan_sweep(make(), only={"page_kb": 4})
        assert [c.name for c in plan.cells] == [
            "page_kb=4,fault_profile=none",
            "page_kb=4,fault_profile=pathological",
        ]

    def test_only_can_exclude_baseline(self):
        plan = plan_sweep(make(), only={"page_kb": 4})
        assert plan.baseline is None

    def test_only_reindexes(self):
        plan = plan_sweep(make(), only={"page_kb": 4})
        assert [c.index for c in plan.cells] == [0, 1]

    def test_only_unswept_value_gives_zero_cells(self):
        plan = plan_sweep(make(), only={"page_kb": 4, "fault_profile": "mild"})
        assert plan.n_cells == 0

    def test_only_unknown_axis_raises(self):
        with pytest.raises(ValueError, match="not a swept axis"):
            plan_sweep(make(), only={"memory_mb": 64})


class TestSelectors:
    def test_parse_selector_matches_declared_values(self):
        spec = make()
        assert parse_selector(spec, "page_kb=4") == {"page_kb": 4}
        assert parse_selector(spec, "fault_profile=none") == {"fault_profile": None}

    def test_parse_selector_multi(self):
        spec = make()
        sel = parse_selector(spec, "page_kb=16,fault_profile=pathological")
        assert sel == {"page_kb": 16, "fault_profile": "pathological"}

    def test_parse_selector_rejects_unknown_axis(self):
        with pytest.raises(ValueError, match="not a swept axis"):
            parse_selector(make(), "memory_mb=64")

    def test_parse_selector_rejects_undeclared_value(self):
        with pytest.raises(ValueError, match="matches none"):
            parse_selector(make(), "page_kb=8")

    def test_parse_selector_rejects_bare_word(self):
        with pytest.raises(ValueError, match="expected axis=value"):
            parse_selector(make(), "page_kb")

    # A compare operand resolves against a saved run's cell names and
    # spec block, whatever the plan kept.
    @staticmethod
    def saved(plan):
        return {
            "spec": plan.spec.to_dict(),
            "sweep": {"cells": [{"name": c.name} for c in plan.cells]},
        }

    def test_select_cell_baseline(self):
        plan = plan_sweep(make())
        assert _resolve_name(self.saved(plan), "baseline") == plan.baseline.name

    def test_select_cell_full_name(self):
        plan = plan_sweep(make())
        name = _resolve_name(self.saved(plan), "page_kb=4,fault_profile=pathological")
        assert plan.cell(name).overrides == {
            "page_kb": 4,
            "fault_profile": "pathological",
        }

    def test_select_cell_partial_fills_from_baseline(self):
        plan = plan_sweep(make())
        name = _resolve_name(self.saved(plan), "fault_profile=pathological")
        assert plan.cell(name).overrides == {
            "page_kb": 16,  # baseline value
            "fault_profile": "pathological",
        }

    def test_select_cell_missing_from_filtered_plan(self):
        saved = self.saved(plan_sweep(make(), only={"page_kb": 4}))
        name = _resolve_name(saved, "page_kb=16,fault_profile=none")
        with pytest.raises(ValueError, match="no cell named"):
            find_cell(saved, name)
