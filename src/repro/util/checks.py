"""One-line ``ValueError`` checks for values read from spec files and
service requests."""

from __future__ import annotations

import math
from typing import Any


def check_number(
    value: Any, what: str, *, integer: bool = False, positive: bool | None = True
) -> None:
    """Raise a one-line ``ValueError`` unless ``value`` is a finite number
    (an int if ``integer``) that is positive, non-negative if
    ``positive`` is false, or of either sign if it is ``None``.  bool is
    not a number here: ``true`` for a node count is a typo.  Neither is
    an infinite float, which JSON (``Infinity``) and the YAML subset
    (``inf``) both read: the model has no infinite memory or fault
    limit."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ValueError(f"{what} must be {'an integer' if integer else 'a number'}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value}")
    if positive is not None and not (value > 0 if positive else value >= 0):
        raise ValueError(f"{what} must be {'positive' if positive else 'non-negative'}, got {value}")
