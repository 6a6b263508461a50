"""Saved fleet documents are checked when ``sp2-fleet report`` and
``compare`` load them."""

from __future__ import annotations

import json
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings

from repro.fleet.analysis import (
    FLEET_FIELDS,
    MEMBER_FIELDS,
    compare_fleets,
    read_fleet_document,
    render_fleet_report,
)
from tests.spec_fuzz import mutated

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "golden" / "data" / "fleet_demo2.json"
DOCUMENT = json.loads(GOLDEN.read_text())


def load(tmp_path, document) -> dict:
    path = tmp_path / "fleet.json"
    path.write_text(json.dumps(document))
    return read_fleet_document(path)


def changed(edit) -> dict:
    document = json.loads(GOLDEN.read_text())
    edit(document["fleet"])
    return document


class TestLoad:
    def test_saved_document_loads_as_written(self):
        assert read_fleet_document(GOLDEN) == DOCUMENT

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda f: f.pop("members"), "^fleet lacks members$"),
            (lambda f: f.update(members="oops"), "^fleet.members must be a list, got 'oops'$"),
            (
                lambda f: f.update(fleet_gflops_mean="oops"),
                "^fleet.fleet_gflops_mean must be a number, got 'oops'$",
            ),
            (
                lambda f: f["members"][1].update(jobs_accounted=2.5),
                r"^fleet.members\[1\].jobs_accounted must be an integer, got float 2.5$",
            ),
            (
                lambda f: f["members"][0]["job_sizes"].update(wide={"node_seconds": 1.0}),
                r"^fleet.members\[0\].job_sizes\['wide'\]: a job size must be a node count$",
            ),
            (
                lambda f: f["members"][0]["app_mix_node_seconds"].update(cfd=None),
                r"^fleet.members\[0\].app_mix_node_seconds\['cfd'\] must be a number",
            ),
        ],
        ids=[
            "no-members", "members-string", "gflops-string", "jobs-float", "size-word", "app-null"
        ],
    )
    def test_bad_document_is_one_line_error(self, tmp_path, edit, message):
        with pytest.raises(ValueError, match=message):
            load(tmp_path, changed(edit))

    def test_document_without_fleet_block(self, tmp_path):
        with pytest.raises(ValueError, match="no 'fleet' block"):
            load(tmp_path, {"hello": 1})


PATHS = (
    [("fleet",), ("fleet", "members", 0), ("fleet", "members", 1)]
    + [("fleet", key) for key in FLEET_FIELDS]
    + [("fleet", "members", i, key) for i in range(2) for key in MEMBER_FIELDS]
    + [
        ("fleet", "members", i, block, key, *rest)
        for i, member in enumerate(DOCUMENT["fleet"]["members"])
        for block, rest in (("job_sizes", ("node_seconds",)), ("app_mix_node_seconds", ()))
        for key in member[block]
    ]
)


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(document=mutated(DOCUMENT, PATHS))
def test_mutated_document_is_refused_in_one_line_or_renders(tmp_path, document):
    """A mutated document is refused in one line, or the report and a
    comparison against the saved run both render to the end."""
    try:
        loaded = load(tmp_path, document)
    except ValueError as err:
        assert "\n" not in str(err), str(err)
        return
    render_fleet_report(loaded)
    compare_fleets(DOCUMENT, loaded).render()
    compare_fleets(loaded, DOCUMENT).render()
