"""Cell cache: any defect reads as a miss, never a wrong answer."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from repro.sweep.cache import CELL_FIELDS, cell_path, load_cell, save_cell
from repro.sweep.planner import CELL_VERSION
from tests.spec_fuzz import damaged, mutated

FP = "deadbeef" * 8


def doc(**kw):
    base = {
        "version": CELL_VERSION,
        "fingerprint": FP,
        "name": "base",
        "overrides": {},
        "settings": {"n_days": 1},
        "summary": {"campaign": {"jobs_accounted": 7}},
        "metrics": {"campaign.jobs_accounted": 7.0},
        "repeat": None,
        "estimates": None,
        "samples": None,
    }
    base.update(kw)
    return base


def test_roundtrip(tmp_path):
    path = save_cell(str(tmp_path), doc())
    assert os.path.exists(path)
    assert load_cell(str(tmp_path), FP) == doc()


def test_missing_is_none(tmp_path):
    assert load_cell(str(tmp_path), FP) is None


def test_missing_dir_is_none(tmp_path):
    assert load_cell(str(tmp_path / "nowhere"), FP) is None


def test_truncated_json_is_none(tmp_path):
    save_cell(str(tmp_path), doc())
    path = cell_path(str(tmp_path), FP)
    text = open(path).read()
    open(path, "w").write(text[: len(text) // 2])
    assert load_cell(str(tmp_path), FP) is None


def test_non_dict_payload_is_none(tmp_path):
    open(cell_path(str(tmp_path), FP), "w").write("[1, 2]\n")
    assert load_cell(str(tmp_path), FP) is None


def test_version_mismatch_is_none(tmp_path):
    save_cell(str(tmp_path), doc(version=CELL_VERSION + 1))
    assert load_cell(str(tmp_path), FP) is None


def test_fingerprint_mismatch_is_none(tmp_path):
    # A file renamed (or hand-edited) to the wrong fingerprint must not
    # serve another cell's results.
    other = "feedface" * 8
    save_cell(str(tmp_path), doc())
    os.rename(cell_path(str(tmp_path), FP), cell_path(str(tmp_path), other))
    assert load_cell(str(tmp_path), other) is None


def test_save_creates_dir_and_leaves_no_temp_files(tmp_path):
    cache = tmp_path / "fresh" / "cache"
    save_cell(str(cache), doc())
    leftovers = [p for p in os.listdir(cache) if ".tmp." in p]
    assert leftovers == []


def test_overwrite_is_atomic_replace(tmp_path):
    save_cell(str(tmp_path), doc())
    save_cell(str(tmp_path), doc(metrics={"campaign.jobs_accounted": 9.0}))
    assert load_cell(str(tmp_path), FP)["metrics"] == {
        "campaign.jobs_accounted": 9.0
    }


def test_non_utf8_file_is_none(tmp_path):
    Path(cell_path(str(tmp_path), FP)).write_bytes(b'{"version": "\xff"}\n')
    assert load_cell(str(tmp_path), FP) is None


@pytest.mark.parametrize("field", sorted(CELL_FIELDS))
def test_document_missing_a_written_field_is_none(tmp_path, field):
    """A stub ``{version, fingerprint}`` document used to be a hit, and
    the sweep report showed it as an empty ``?`` row."""
    document = doc()
    del document[field]
    Path(cell_path(str(tmp_path), FP)).write_text(json.dumps(document))
    assert load_cell(str(tmp_path), FP) is None


def test_stub_document_is_none(tmp_path):
    save_cell(str(tmp_path), {"version": CELL_VERSION, "fingerprint": FP})
    assert load_cell(str(tmp_path), FP) is None


def test_executor_writes_every_field(tmp_path):
    from repro.sweep.executor import execute_cell
    from repro.sweep.planner import plan_sweep
    from repro.sweep.spec import SweepSpec

    spec = SweepSpec.from_dict({"name": "one", "base": {"n_days": 1, "n_nodes": 8, "n_users": 2}})
    (cell,) = plan_sweep(spec).cells
    assert set(execute_cell(cell, spec)) == CELL_FIELDS


def _saved_bytes(document: dict) -> bytes:
    """What :func:`save_cell` writes for ``document``."""
    return (json.dumps(document, indent=2) + "\n").encode("utf-8")


FUZZ = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def test_fuzz_seed_is_a_saved_cell(tmp_path):
    assert Path(save_cell(str(tmp_path), doc())).read_bytes() == _saved_bytes(doc())


@FUZZ
@given(data=damaged(_saved_bytes(doc())))
def test_damaged_file_loads_or_misses(tmp_path, data):
    Path(cell_path(str(tmp_path), FP)).write_bytes(data)
    loaded = load_cell(str(tmp_path), FP)
    assert loaded is None or (isinstance(loaded, dict) and CELL_FIELDS <= loaded.keys())


@FUZZ
@given(document=mutated(doc(), [(key,) for key in sorted(doc())]))
def test_mutated_document_loads_or_misses(tmp_path, document):
    Path(cell_path(str(tmp_path), FP)).write_bytes(_saved_bytes(document))
    loaded = load_cell(str(tmp_path), FP)
    # Compared as saved bytes: a NaN value never equals itself.
    assert loaded is None or _saved_bytes(loaded) == _saved_bytes(document)
    assert (loaded is None) == (
        not CELL_FIELDS <= document.keys()
        or document["version"] != CELL_VERSION
        or document["fingerprint"] != FP
    )
