"""One-line ``ValueError`` checks for values read from spec files and
service requests, and the bounded echo of an offending value they use."""

from __future__ import annotations

import math
import reprlib
from typing import Any, Iterable

#: Longest echo of an offending value in a one-line refusal.
MAX_SHOWN = 80

#: Reprs that stop at six levels, six items and 30-character strings, so
#: a document-sized value is never rendered whole.
_REPR = reprlib.Repr()


def cut(text: str) -> str:
    """``text`` whole, or its first :data:`MAX_SHOWN` characters with
    the last three replaced by ``...``."""
    return text if len(text) <= MAX_SHOWN else text[: MAX_SHOWN - 3] + "..."


def describe(value: Any) -> str:
    """An offending value as a refusal shows it: its repr, cut to at
    most :data:`MAX_SHOWN` characters, after its type's name unless it
    is a string (whose quotes say so).  A spec value can be a nested
    list thousands of characters long."""
    shown = cut(_REPR.repr(value))
    return shown if isinstance(value, str) else f"{type(value).__name__} {shown}"


def describe_names(names: Iterable[Any]) -> str:
    """Names (spec keys, member names) as a refusal lists them:
    comma-separated, any name that is not printable text as its repr,
    the whole cut to at most :data:`MAX_SHOWN` characters."""
    return cut(
        ", ".join(n if isinstance(n, str) and n.isprintable() else repr(n) for n in names)
    )


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
        raise ValueError(
            f"{what} must be {'an integer' if integer else 'a number'}, got {describe(value)}"
        )
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value}")
    if positive is not None and not (value > 0 if positive else value >= 0):
        raise ValueError(
            f"{what} must be {'positive' if positive else 'non-negative'}, "
            f"got {cut(_REPR.repr(value))}"
        )


def check_object(value: Any, what: str) -> dict:
    """``value`` if it is an object (a dict), else a one-line
    ``ValueError``."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, got {describe(value)}")
    return value


#: How a refusal names each type :func:`check_fields` checks for.
_KINDS = {str: "a string", list: "a list", dict: "an object",
          (str, type(None)): "a string or null", (dict, type(None)): "an object or null"}


def check_fields(block: Any, fields: dict[str, Any], where: str) -> dict:
    """``block`` if it is an object holding every key of ``fields``, each
    value of that key's type, else a one-line ``ValueError``.  A type is
    a key of :data:`_KINDS`, ``int`` or ``float`` (a finite number, as
    :func:`check_number` takes it), or ``object`` (anything)."""
    missing = fields.keys() - check_object(block, where).keys()
    if missing:
        raise ValueError(f"{where} lacks {describe_names(sorted(missing))}")
    for key, kind in fields.items():
        value, what = block[key], f"{where}.{key}"
        if kind in (int, float):
            check_number(value, what, integer=kind is int, positive=None)
        elif not isinstance(value, kind):
            raise ValueError(f"{what} must be {_KINDS[kind]}, got {describe(value)}")
    return block
