"""Per-cell result cache keyed by configuration fingerprint.

The executor persists every finished cell as
``<dir>/cell-<fingerprint>.json``; re-running a sweep then re-executes
only cells whose fingerprints changed — edit one axis value and the
other cells are served from disk.  An *unchanged* spec re-runs with
100% cache reuse and zero campaigns executed (the CI ``sweep-smoke``
job asserts exactly this).

The trust model mirrors :mod:`repro.parallel.checkpoint`: any defect —
missing file, bytes that do not decode as UTF-8 JSON, a document
missing a field the executor always writes, version or fingerprint
mismatch — reads as a cache miss and the cell is recomputed, which is
always safe.
Writes are atomic (temp file + ``os.replace``) so an interrupted sweep
can never leave a torn cell behind.
"""

from __future__ import annotations

import json
import os
from typing import Any

from repro.sweep.planner import CELL_VERSION

#: The fields :func:`repro.sweep.executor.execute_cell` writes into every
#: cell document (``None`` where a field does not apply).
CELL_FIELDS = frozenset(
    ("version", "fingerprint", "name", "overrides", "settings")
    + ("summary", "metrics", "repeat", "estimates", "samples")
)


def cell_path(cache_dir: str, fingerprint: str) -> str:
    return os.path.join(cache_dir, f"cell-{fingerprint}.json")


def save_cell(cache_dir: str, document: dict[str, Any]) -> str:
    """Atomically persist one finished cell; returns the file path."""
    os.makedirs(cache_dir, exist_ok=True)
    path = cell_path(cache_dir, document["fingerprint"])
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def load_cell(cache_dir: str, fingerprint: str) -> dict[str, Any] | None:
    """The cached document for one cell, or ``None`` when absent/stale."""
    path = cell_path(cache_dir, fingerprint)
    try:
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh)
    except (OSError, ValueError, RecursionError):
        # ValueError covers both JSONDecodeError and UnicodeDecodeError;
        # RecursionError is JSON nested past the parser's depth.
        return None
    if not isinstance(document, dict) or not CELL_FIELDS <= document.keys():
        return None
    if document.get("version") != CELL_VERSION:
        return None
    if document.get("fingerprint") != fingerprint:
        return None
    return document
