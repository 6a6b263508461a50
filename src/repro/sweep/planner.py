"""Expand a :class:`~repro.sweep.spec.SweepSpec` into an ordered cell plan.

One **cell** = one fully-resolved campaign configuration: the spec's
base settings plus one value per axis.  The planner

* expands the axis cross-product in declaration order (first axis
  varies slowest, like nested loops);
* fingerprints each cell — sha256 over the resolved
  :class:`~repro.core.study.StudyConfig` repr plus the shard plan and
  repeat definition, the same hashing scheme the shard checkpoints use
  (:mod:`repro.parallel.checkpoint`) — so a cell's identity is its
  *resolved* experiment, not its spelling;
* refuses duplicate fingerprints with a one-line error (two spellings
  that normalize to the same config, e.g. ``fault_profile: [none, null]``,
  would silently halve the sweep);
* orders the baseline cell first — every contender's reference exists
  before the contender runs, so differential reports can stream.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.study import AXES, StudyConfig, resolve_config
from repro.parallel.checkpoint import sha256_fingerprint
from repro.sweep.spec import SweepSpec

#: Bump when the cell document layout changes incompatibly; stale cache
#: entries are then recomputed instead of mis-read.
CELL_VERSION = 1


def format_value(value: Any) -> str:
    """Canonical short rendering of an axis value (cell names, CLIs)."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def cell_name(overrides: Mapping[str, Any]) -> str:
    """``axis=value,axis=value`` in axis order; ``base`` when no axes."""
    if not overrides:
        return "base"
    return ",".join(f"{k}={format_value(v)}" for k, v in overrides.items())


def cell_fingerprint(config: StudyConfig, spec: SweepSpec) -> str:
    """Identity of one cell's resolved experiment.

    Worker counts are deliberately absent: merged output is invariant to
    them (docs/PARALLEL.md), so a cache entry computed on 4 workers
    serves a 1-worker re-run.  Shard width and the repeat definition
    *do* shape the output, so they are part of the identity.
    """
    repeat_token = spec.repeat.token() if spec.repeat is not None else "none"
    payload = (
        f"sweep-cell-v{CELL_VERSION}|{config!r}"
        f"|shard_days={spec.shard_days}|repeat={repeat_token}"
    )
    return sha256_fingerprint(payload)


@dataclass(frozen=True)
class Cell:
    """One point of the sweep's cross-product."""

    index: int
    name: str
    #: This cell's axis assignment (axis order preserved).
    overrides: dict[str, Any]
    #: Base settings + overrides, flat.
    settings: dict[str, Any]
    #: The resolved frozen campaign configuration.
    config: StudyConfig
    fingerprint: str
    is_baseline: bool


@dataclass(frozen=True)
class SweepPlan:
    """The ordered, deduplicated, fingerprinted cell list."""

    spec: SweepSpec
    cells: tuple[Cell, ...]

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def baseline(self) -> Cell | None:
        for cell in self.cells:
            if cell.is_baseline:
                return cell
        return None

    def cell(self, name: str) -> Cell:
        for c in self.cells:
            if c.name == name:
                return c
        raise KeyError(
            f"no cell named {name!r}; cells: "
            f"{', '.join(c.name for c in self.cells)}"
        )


def _only_matches(value: Any, allowed: Any) -> bool:
    """One ``--only`` constraint: a scalar compares, a list is a
    membership test (an empty list came from conflicting constraints
    and matches nothing)."""
    if isinstance(allowed, (list, tuple)):
        return value in allowed
    return value == allowed


def plan_sweep(spec: SweepSpec, *, only: Mapping[str, Any] | None = None) -> SweepPlan:
    """Expand, fingerprint, dedupe-check and order the sweep's cells.

    ``only`` filters the grid to cells matching every given
    ``axis: value`` constraint (the CLI's ``--only``); a value may also
    be a list of allowed values (membership test), and an *empty* list
    matches nothing.  Filtering is applied *after* baseline
    identification, so a filtered plan may legitimately contain zero
    cells — the CLI maps that to exit 1, not a crash.
    """
    if only:
        for axis in only:
            if axis not in spec.axes:
                raise ValueError(
                    f"--only names {axis!r}, which is not a swept axis "
                    f"(axes: {', '.join(spec.axes) or 'none'})"
                )

    baseline_overrides = spec.baseline_overrides()
    axis_names = list(spec.axes)
    combos = itertools.product(*(spec.axes[a] for a in axis_names))

    cells: list[Cell] = []
    by_fingerprint: dict[str, str] = {}
    for combo in combos:
        overrides = dict(zip(axis_names, combo))
        settings = {**spec.base, **overrides}
        name = cell_name(overrides)
        try:
            config = resolve_config(settings)
        except ValueError as err:  # a value the machine model cannot build
            raise ValueError(f"cell {name!r}: {err}") from None
        fp = cell_fingerprint(config, spec)
        if fp in by_fingerprint:
            raise ValueError(
                f"cells {by_fingerprint[fp]!r} and {name!r} resolve to the "
                "same configuration — distinct axis values must stay "
                "distinct after normalization"
            )
        by_fingerprint[fp] = name
        cells.append(
            Cell(
                index=0,  # assigned after ordering
                name=name,
                overrides=overrides,
                settings=settings,
                config=config,
                fingerprint=fp,
                is_baseline=overrides == baseline_overrides,
            )
        )

    # Baseline-before-contender: the reference cell leads, grid order
    # is preserved for the rest.
    cells.sort(key=lambda c: (not c.is_baseline,))
    if only:
        cells = [
            c
            for c in cells
            if all(_only_matches(c.overrides.get(a), v) for a, v in only.items())
        ]
    cells = [
        Cell(
            index=i,
            name=c.name,
            overrides=c.overrides,
            settings=c.settings,
            config=c.config,
            fingerprint=c.fingerprint,
            is_baseline=c.is_baseline,
        )
        for i, c in enumerate(cells)
    ]
    return SweepPlan(spec=spec, cells=tuple(cells))


def parse_selector(spec: SweepSpec, text: str) -> dict[str, Any]:
    """``axis=value[,axis=value...]`` → an axis assignment.

    Values are matched against each axis's *declared* values by their
    canonical rendering (:func:`format_value`), so ``page_kb=16``
    and ``fault_profile=none`` mean exactly the spec's objects — no
    ad-hoc type coercion.
    """
    out: dict[str, Any] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(
                f"bad selector {part!r}: expected axis=value"
            )
        axis, _, raw = part.partition("=")
        axis = axis.strip()
        raw = raw.strip()
        if axis not in spec.axes:
            raise ValueError(
                f"selector names {axis!r}, which is not a swept axis "
                f"(axes: {', '.join(spec.axes) or 'none'})"
            )
        for value in spec.axes[axis]:
            if format_value(value) == raw:
                out[axis] = value
                break
        else:
            raise ValueError(
                f"selector {axis}={raw!r} matches none of that axis's "
                f"values: {', '.join(format_value(v) for v in spec.axes[axis])}"
            )
    if not out:
        raise ValueError(f"empty selector {text!r}")
    return out


def axis_help() -> str:
    """One line per known axis (the CLI's ``--list-axes``)."""
    lines = []
    for name, axis in AXES.items():
        choice = (
            f" ({'/'.join(str(c) for c in axis.choices)})" if axis.choices else ""
        )
        lines.append(f"  {name:<26s} {axis.kind:<6s} {axis.doc}{choice}")
    return "\n".join(lines)
