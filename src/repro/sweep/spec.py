"""Declarative scenario-sweep specification.

The paper's §6 findings are one-off measurements on one configuration;
a :class:`SweepSpec` turns them into *what-if studies*: a base campaign
plus named **axes** (page size, memory size, fault profile, scheduler
policy, ...) whose cross-product the planner expands into cells —
"would 256 MB nodes have stopped §6's paging?" is a two-line spec, not
a shell loop.

Specs are plain data.  They load from Python dicts, JSON files, or a
small YAML subset (:func:`parse_simple_yaml` — mappings, lists, scalars
and comments; no anchors, no multi-line strings, no new dependencies),
and every mistake fails at load time with a one-line ``ValueError``
naming the offending key or value — never a traceback from inside the
simulator days later.

The axes are :data:`repro.core.study.AXES`, the one vocabulary of
named settings, and :func:`repro.core.study.resolve_config` is the one
place a flat settings mapping becomes the frozen config object the
runner, checkpoint fingerprints and cell cache all key on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.study import axis_def
from repro.stats.metrics import DEFAULT_TARGET_METRIC
from repro.util.checks import check_number, describe, describe_names


#: Seed is special-cased: the repeat layer varies it, so a spec with a
#: ``repeat`` block may not also sweep or fix it to conflicting ends —
#: see :class:`SweepSpec` validation.
_SEED_AXIS = "seed"


# ----------------------------------------------------------------------
# Repeat block
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RepeatSpec:
    """Per-cell statistical repetition (docs/STATS.md semantics).

    Either a fixed ``seeds`` list (every cell runs exactly these seeds;
    deterministic, the CI fixture mode) or adaptive stopping from each
    cell's base seed with a ``target_rse`` rule and ``max_repeats``
    cutoff.  Every cell then carries ``mean ± hw [n, rule]`` estimates
    for every metric, and ``compare`` can flag non-overlapping CIs.
    """

    seeds: tuple[int, ...] | None = None
    target_rse: float | None = None
    batch: int = 4
    max_repeats: int = 32
    metric: str = DEFAULT_TARGET_METRIC
    confidence: float = 0.95

    def __post_init__(self) -> None:
        if self.seeds is not None:
            if isinstance(self.seeds, list):
                object.__setattr__(self, "seeds", tuple(self.seeds))
            if not self.seeds:
                raise ValueError("repeat.seeds must not be empty")
            for s in self.seeds:
                check_number(s, "repeat.seeds entry", integer=True, positive=False)
            if len(set(self.seeds)) != len(self.seeds):
                raise ValueError(f"repeat.seeds lists duplicate seeds: {list(self.seeds)}")
        if self.seeds is None and self.target_rse is None:
            raise ValueError("repeat needs either a seeds list or a target_rse rule")
        if self.seeds is not None and self.target_rse is not None:
            raise ValueError(
                "repeat cannot set both a seeds list and a target_rse rule — pick one"
            )
        for name in ("target_rse", "confidence"):
            value = getattr(self, name)
            if value is not None:
                check_number(value, f"repeat.{name}")
                if not value < 1:
                    raise ValueError(f"repeat.{name} must be in (0, 1), got {value}")
        check_number(self.batch, "repeat.batch", integer=True)
        check_number(self.max_repeats, "repeat.max_repeats", integer=True)
        if not isinstance(self.metric, str):
            raise ValueError(f"repeat.metric must be a string, got {describe(self.metric)}")

    def as_dict(self) -> dict:
        out: dict = {}
        if self.seeds is not None:
            out["seeds"] = list(self.seeds)
        if self.target_rse is not None:
            out["target_rse"] = self.target_rse
        out.update(
            batch=self.batch,
            max_repeats=self.max_repeats,
            metric=self.metric,
            confidence=self.confidence,
        )
        return out

    def token(self) -> str:
        """Canonical string for cell fingerprints."""
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping) -> "RepeatSpec":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown repeat keys: {describe_names(sorted(unknown))}")
        payload = dict(data)
        if "seeds" in payload and payload["seeds"] is not None:
            if not isinstance(payload["seeds"], (list, tuple)):
                raise ValueError(
                    f"repeat.seeds must be a list, got {describe(payload['seeds'])}"
                )
            payload["seeds"] = tuple(payload["seeds"])
        return cls(**payload)


# ----------------------------------------------------------------------
# The sweep spec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepSpec:
    """A base campaign plus axes whose cross-product defines the sweep."""

    name: str = "sweep"
    #: Fixed settings every cell shares (keys from
    #: :data:`repro.core.study.AXES`).
    base: dict[str, Any] = field(default_factory=dict)
    #: ``{axis: [values...]}`` — cells are the cross-product, in the
    #: declaration order of the axes (first axis varies slowest).
    axes: dict[str, list] = field(default_factory=dict)
    #: Which cell is the baseline: a (partial) assignment of axis
    #: values; unassigned axes default to their first listed value.
    baseline: dict[str, Any] = field(default_factory=dict)
    #: Optional per-cell statistical repetition.
    repeat: RepeatSpec | None = None
    #: Day-range shard width for within-cell sharded execution; part of
    #: the experiment definition (shard plans shape fault schedules), so
    #: it participates in cell fingerprints — worker counts do not.
    shard_days: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name.strip():
            raise ValueError(
                f"sweep name cannot be empty or a non-string, got {describe(self.name)}"
            )
        for key, value in self.base.items():
            axis_def(key, "base setting").check(value, where="base setting")
        for axis, values in self.axes.items():
            definition = axis_def(axis, "axis")
            if axis in self.base:
                raise ValueError(
                    f"axis {axis!r} also appears as a fixed base setting — "
                    "a swept knob cannot be pinned; remove one"
                )
            if not isinstance(values, (list, tuple)):
                raise ValueError(
                    f"axis {axis!r} must list its values, got {describe(values)}"
                )
            if len(values) == 0:
                raise ValueError(
                    f"axis {axis!r} has no values — the cross-product is empty"
                )
            seen: list = []
            for value in values:
                definition.check(value, where="axis")
                if value in seen:
                    raise ValueError(f"axis {axis!r} lists duplicate value {describe(value)}")
                seen.append(value)
        if self.repeat is not None and _SEED_AXIS in self.axes:
            raise ValueError(
                "axis 'seed' cannot be combined with a repeat block — "
                "the repeat layer already varies the seed"
            )
        for axis, value in self.baseline.items():
            if axis not in self.axes:
                raise ValueError(
                    f"baseline names {describe(axis)}, which is not a swept axis "
                    f"(axes: {', '.join(self.axes) or 'none'})"
                )
            if value not in self.axes[axis]:
                raise ValueError(
                    f"baseline {axis!r} value {describe(value)} is not among that "
                    f"axis's values {describe(list(self.axes[axis]))}"
                )
        if self.shard_days is not None:
            check_number(self.shard_days, "shard_days", integer=True)

    # ------------------------------------------------------------------
    @property
    def n_cells(self) -> int:
        n = 1
        for values in self.axes.values():
            n *= len(values)
        return n

    def baseline_overrides(self) -> dict[str, Any]:
        """The baseline cell's full axis assignment."""
        return {
            axis: self.baseline.get(axis, values[0])
            for axis, values in self.axes.items()
        }

    def to_dict(self) -> dict:
        out: dict = {"name": self.name}
        if self.base:
            out["base"] = dict(self.base)
        if self.axes:
            out["axes"] = {k: list(v) for k, v in self.axes.items()}
        if self.baseline:
            out["baseline"] = dict(self.baseline)
        if self.repeat is not None:
            out["repeat"] = self.repeat.as_dict()
        if self.shard_days is not None:
            out["shard_days"] = self.shard_days
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "SweepSpec":
        if not isinstance(data, Mapping):
            raise ValueError(f"sweep spec must be a mapping, got {type(data).__name__}")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown sweep spec keys: {describe_names(sorted(unknown))}")
        payload = dict(data)
        repeat = payload.pop("repeat", None)
        if repeat is not None:
            if not isinstance(repeat, Mapping):
                raise ValueError(f"repeat must be a mapping, got {describe(repeat)}")
            repeat = RepeatSpec.from_dict(repeat)
        for block in ("base", "axes", "baseline"):
            if block in payload and not isinstance(payload[block], Mapping):
                raise ValueError(
                    f"{block!r} must be a mapping, got {describe(payload[block])}"
                )
        return cls(repeat=repeat, **payload)


def load_spec_file(path: str) -> SweepSpec:
    """A :class:`SweepSpec` from a JSON or YAML-subset file."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read sweep spec {path!r}: {exc}") from None
    try:
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            data = parse_simple_yaml(text)
    except RecursionError:
        raise ValueError(f"sweep spec {path!r} is nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError(f"sweep spec {path!r} is not a mapping")
    return SweepSpec.from_dict(data)


# ----------------------------------------------------------------------
# Minimal YAML-subset parser (no dependencies)
# ----------------------------------------------------------------------
def _scalar(token: str) -> Any:
    token = token.strip()
    if token.startswith("[") and token.endswith("]"):
        inner = token[1:-1].strip()
        if not inner:
            return []
        return [_scalar(part) for part in inner.split(",")]
    if (token.startswith('"') and token.endswith('"') and len(token) >= 2) or (
        token.startswith("'") and token.endswith("'") and len(token) >= 2
    ):
        return token[1:-1]
    low = token.lower()
    if low in ("null", "~", "none", ""):
        return None
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def _strip_comment(line: str) -> str:
    out: list[str] = []
    quote: str | None = None
    for ch in line:
        if quote is not None:
            out.append(ch)
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
            out.append(ch)
        elif ch == "#":
            break
        else:
            out.append(ch)
    return "".join(out).rstrip()


def parse_simple_yaml(text: str) -> Any:
    """Parse the YAML subset sweep specs use.

    Supported: nested mappings by 2+-space indentation, ``key: value``
    scalars, block lists (``- item``), inline lists (``[a, b]``),
    ``#`` comments, quoted strings, int/float/bool/null scalars.
    Unsupported constructs fail with a one-line error naming the line.
    """
    entries: list[tuple[int, str, int]] = []  # (indent, content, lineno)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "\t" in raw[: len(raw) - len(raw.lstrip())]:
            raise ValueError(f"line {lineno}: tabs are not allowed in indentation")
        line = _strip_comment(raw)
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip(" "))
        entries.append((indent, line.strip(), lineno))
    if not entries:
        return {}
    value, next_i = _parse_block(entries, 0, entries[0][0])
    if next_i != len(entries):
        indent, content, lineno = entries[next_i]
        raise ValueError(f"line {lineno}: unexpected de-indented content {describe(content)}")
    return value


def _parse_block(
    entries: list[tuple[int, str, int]], i: int, indent: int
) -> tuple[Any, int]:
    if entries[i][1].startswith("- "):
        items: list = []
        while i < len(entries) and entries[i][0] == indent and entries[i][1].startswith("- "):
            items.append(_scalar(entries[i][1][2:]))
            i += 1
        return items, i
    mapping: dict = {}
    while i < len(entries) and entries[i][0] == indent:
        _, content, lineno = entries[i]
        if content.startswith("- "):
            raise ValueError(f"line {lineno}: list item in a mapping block")
        if ":" not in content:
            raise ValueError(f"line {lineno}: expected 'key: value', got {describe(content)}")
        key_text, _, rest = content.partition(":")
        key = key_text.strip().strip("\"'")
        if key in mapping:
            raise ValueError(f"line {lineno}: duplicate key {describe(key)}")
        rest = rest.strip()
        if rest:
            mapping[key] = _scalar(rest)
            i += 1
            continue
        i += 1
        if i < len(entries) and entries[i][0] > indent:
            mapping[key], i = _parse_block(entries, i, entries[i][0])
        else:
            mapping[key] = None
    return mapping, i
