"""Output checks: digests of what a run simulated, and paper bands.

Every run hashes its simulated output and compares the hash with the
digest recorded in ``digests.json`` for that workload, size and seed.
The recorded ``paper-study`` digest at the goldens' configuration (seed
0, 30 days, 144 nodes, 60 users) is the one :func:`golden_digest`
computes from ``tests/golden/data/``; the benchmark's tests assert it.
A seed without a recorded digest is held to the paper bands instead.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Iterable

RECORDED = pathlib.Path(__file__).with_name("digests.json")

#: The golden files a ``paper-study`` digest covers, in hashing order.
GOLDEN_PARTS = ("summary.json", "table2.txt", "table3.txt", "table4.txt", "headlines.txt")

#: The bands ``tests/golden/test_golden.py::test_paper_scale_bands``
#: asserts for a paper-scale campaign: headline claim → (low, high).
PAPER_BANDS = {
    "average daily system performance": (0.9, 1.6),
    "system efficiency (of aggregate peak)": (0.02, 0.045),
    "most popular node count": (16, 16),
    "FPU0:FPU1 instruction ratio": (1.3, 2.2),
}


def digest(parts: Iterable[tuple[str, str]]) -> str:
    """sha256 over named text parts, in order."""
    h = hashlib.sha256()
    for name, text in parts:
        h.update(name.encode())
        h.update(b"\0")
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def golden_digest(golden_dir: pathlib.Path) -> str:
    """The ``paper-study`` digest the golden files pin (read only)."""
    return digest((name, (golden_dir / name).read_text()) for name in GOLDEN_PARTS)


def load_recorded(path: pathlib.Path = RECORDED) -> dict[str, dict[str, dict]]:
    """{workload key: {seed: {"digest": ..., "peak_rss_mb": ..., "events": ...}}}."""
    return json.loads(path.read_text()) if path.exists() else {}


def recorded_digest(key: str, seed: int, path: pathlib.Path = RECORDED) -> str | None:
    entry = load_recorded(path).get(key, {}).get(str(seed))
    return entry["digest"] if entry is not None else None


def band_failures(dataset) -> list[str]:
    """Headlines outside :data:`PAPER_BANDS` (empty = within bands)."""
    from repro.analysis.report import headline_report

    by_claim = {h.claim: h.measured_value for h in headline_report(dataset)}
    failures = []
    for claim, (low, high) in PAPER_BANDS.items():
        value = by_claim.get(claim)
        if value is None or not low <= value <= high:
            failures.append(f"{claim} = {value} outside [{low}, {high}]")
    return failures


def verify(key: str, seed: int, got: str, fallback) -> list[str]:
    """Problems with a run's output digest (empty = correct).

    With a recorded digest the output must hash to it exactly; without
    one, ``fallback()`` returns the band problems instead.
    """
    expected = recorded_digest(key, seed)
    if expected is None:
        return fallback()
    if got != expected:
        return [f"{key} seed {seed}: output digest {got[:12]} != recorded {expected[:12]}"]
    return []
