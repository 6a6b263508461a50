"""Differential reports: compare flags exactly the non-overlapping CIs."""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings

from repro.sweep.cache import CELL_FIELDS
from repro.sweep.report import (
    FLAG,
    cis_overlap,
    compare_cells,
    find_cell,
    read_sweep_document,
    render_compare,
    render_sweep_report,
    sensitivity_tables,
)
from repro.sweep_cli import main
from tests.spec_fuzz import mutated


def est(mean, half):
    return {
        "mean": mean,
        "ci_low": mean - half,
        "ci_high": mean + half,
        "n": 3,
        "rule": "fixed-seeds",
    }


def cell(name, overrides, metrics, estimates=None):
    return {
        "name": name,
        "overrides": overrides,
        "settings": overrides,
        "metrics": metrics,
        "estimates": estimates,
    }


def document(cells, axes=None):
    return {
        "spec": {"name": "fix", "axes": axes or {}},
        "sweep": {
            "name": "fix",
            "cells": cells,
            "executed": len(cells),
            "reused": 0,
        },
    }


#: Three metrics, engineered so exactly ONE pair of CIs is disjoint:
#:   campaign.availability   — [0.99, 1.01] vs [0.79, 0.81]: disjoint
#:   campaign.jobs_accounted — [90, 110] vs [100, 120]: overlap
#:   campaign.utilization_mean — identical: overlap
REPEAT_DOC = document(
    [
        cell(
            "fault_profile=none",
            {"fault_profile": None},
            {
                "campaign.availability": 1.0,
                "campaign.jobs_accounted": 100.0,
                "campaign.utilization_mean": 0.5,
            },
            {
                "campaign.availability": est(1.0, 0.01),
                "campaign.jobs_accounted": est(100.0, 10.0),
                "campaign.utilization_mean": est(0.5, 0.05),
            },
        ),
        cell(
            "fault_profile=pathological",
            {"fault_profile": "pathological"},
            {
                "campaign.availability": 0.8,
                "campaign.jobs_accounted": 110.0,
                "campaign.utilization_mean": 0.5,
            },
            {
                "campaign.availability": est(0.8, 0.01),
                "campaign.jobs_accounted": est(110.0, 10.0),
                "campaign.utilization_mean": est(0.5, 0.05),
            },
        ),
    ],
    axes={"fault_profile": [None, "pathological"]},
)


class TestCisOverlap:
    def test_disjoint(self):
        assert not cis_overlap(est(1.0, 0.01), est(0.8, 0.01))

    def test_touching_counts_as_overlap(self):
        assert cis_overlap(
            {"ci_low": 0.0, "ci_high": 1.0}, {"ci_low": 1.0, "ci_high": 2.0}
        )

    def test_nested(self):
        assert cis_overlap(est(0.5, 0.5), est(0.5, 0.1))


class TestCompare:
    def test_flags_exactly_the_disjoint_metrics(self):
        table, flagged, compared = compare_cells(
            REPEAT_DOC, "fault_profile=none", "fault_profile=pathological"
        )
        assert compared == 3
        assert flagged == 1
        flagged_rows = [r for r in table.rows if r[-1] == FLAG]
        assert [r[0] for r in flagged_rows] == ["campaign.availability"]

    def test_point_value_cells_never_flag(self):
        doc = document(
            [
                cell("a", {"x": 1}, {"campaign.jobs_accounted": 100.0}),
                cell("b", {"x": 2}, {"campaign.jobs_accounted": 9000.0}),
            ]
        )
        table, flagged, compared = compare_cells(doc, "a", "b")
        assert compared == 1 and flagged == 0

    def test_render_footer_counts(self):
        text = render_compare(
            REPEAT_DOC, "fault_profile=none", "fault_profile=pathological"
        )
        assert "non-overlapping deltas: 1 of 3 metrics" in text

    def test_render_footer_single_seed(self):
        doc = document(
            [
                cell("a", {"x": 1}, {"campaign.jobs_accounted": 100.0}),
                cell("b", {"x": 2}, {"campaign.jobs_accounted": 110.0}),
            ]
        )
        text = render_compare(doc, "a", "b")
        assert "carry no significance flags" in text

    def test_unknown_cell_is_one_line_error(self):
        with pytest.raises(ValueError, match="no cell named 'nope'") as e:
            compare_cells(REPEAT_DOC, "nope", "fault_profile=none")
        assert "\n" not in str(e.value)


class TestFindCell:
    def test_found(self):
        assert find_cell(REPEAT_DOC, "fault_profile=none")["overrides"] == {
            "fault_profile": None
        }

    def test_document_without_sweep_block(self):
        with pytest.raises(ValueError, match="no 'sweep' block"):
            find_cell({"campaign": {}}, "base")


class TestSensitivity:
    def test_marginal_means(self):
        doc = document(
            [
                cell("x=1,y=a", {"x": 1, "y": "a"}, {"campaign.jobs_accounted": 10.0}),
                cell("x=1,y=b", {"x": 1, "y": "b"}, {"campaign.jobs_accounted": 20.0}),
                cell("x=2,y=a", {"x": 2, "y": "a"}, {"campaign.jobs_accounted": 30.0}),
                cell("x=2,y=b", {"x": 2, "y": "b"}, {"campaign.jobs_accounted": 40.0}),
            ],
            axes={"x": [1, 2], "y": ["a", "b"]},
        )
        tables = sensitivity_tables(doc)
        assert len(tables) == 2
        x_rows = {r[0]: r for r in tables[0].rows}
        jobs_col = tables[0].columns.index("Jobs")
        assert x_rows["1"][jobs_col] == pytest.approx(15.0)
        assert x_rows["2"][jobs_col] == pytest.approx(35.0)
        y_rows = {r[0]: r for r in tables[1].rows}
        assert y_rows["a"][jobs_col] == pytest.approx(20.0)
        assert y_rows["b"][jobs_col] == pytest.approx(30.0)

    def test_report_renders_cells_and_axes(self):
        text = render_sweep_report(REPEAT_DOC)
        assert "Sweep 'fix': 2 cells" in text
        assert "Sensitivity to fault_profile" in text


#: REPEAT_DOC as ``sp2-sweep run --out`` saves it: every cell field
#: present, and the axis its cells vary.
SAVED_DOC = document(
    [{**dict.fromkeys(CELL_FIELDS), **c} for c in REPEAT_DOC["sweep"]["cells"]],
    axes={"fault_profile": [None, "pathological"]},
)
METRICS = sorted(REPEAT_DOC["sweep"]["cells"][0]["metrics"])
PATHS = (
    [("spec",), ("spec", "axes"), ("spec", "axes", "fault_profile"), ("sweep",), ("sweep", "cells")]
    + [("sweep", "cells", i) for i in range(2)]
    + [("sweep", "cells", i, key) for i in range(2) for key in sorted(CELL_FIELDS)]
    + [("sweep", "cells", i, "overrides", "fault_profile") for i in range(2)]
    + [
        ("sweep", "cells", i, block, metric)
        for i in range(2)
        for block in ("metrics", "estimates")
        for metric in METRICS
    ]
    + [
        ("sweep", "cells", i, "estimates", metric, bound)
        for i in range(2)
        for metric in METRICS
        for bound in ("ci_low", "ci_high")
    ]
)


class TestSavedDocument:
    def test_saved_document_loads_as_written(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(SAVED_DOC))
        assert read_sweep_document(path) == SAVED_DOC

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(document=mutated(SAVED_DOC, PATHS))
    def test_mutated_document_is_refused_in_one_line_or_renders(self, tmp_path, capsys, document):
        """``report`` and ``compare`` refuse a mutated saved sweep in one
        ``error:`` line with exit 2, or run to the end."""
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(document))
        for argv in (
            ["report", str(path)],
            ["compare", str(path), "baseline", "fault_profile=pathological"],
        ):
            rc = main(argv)
            err = capsys.readouterr().err
            assert rc in (0, 2), err
            if rc == 2:
                assert err.startswith("error: ") and err.count("\n") == 1, err
