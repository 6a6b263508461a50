"""Declarative scenario sweeps with differential reports.

The what-if layer over the reproduction: a validated
:class:`~repro.sweep.spec.SweepSpec` declares a base campaign and the
axes to cross (page size, memory size, fault profile, scheduler
policy, ...); the planner expands and fingerprints the cells; the
executor runs them through the serial/sharded runner or the
:mod:`repro.stats` Repeater with per-cell result caching; and the
report layer renders per-axis sensitivity tables and CI-aware
differential comparisons.  ``sp2-sweep`` is the CLI.

See docs/SWEEPS.md for the spec schema, cell caching and compare
semantics.
"""

from repro.core.study import AXES, AxisDef, resolve_config
from repro.sweep.cache import cell_path, load_cell, save_cell
from repro.sweep.executor import (
    CellResult,
    SweepResult,
    execute_cell,
    run_sweep,
)
from repro.sweep.planner import (
    CELL_VERSION,
    Cell,
    SweepPlan,
    cell_fingerprint,
    cell_name,
    format_value,
    parse_selector,
    plan_sweep,
)
from repro.sweep.report import (
    compare_cells,
    render_compare,
    render_plan_table,
    render_sweep_report,
    sensitivity_tables,
)
from repro.sweep.spec import (
    RepeatSpec,
    SweepSpec,
    load_spec_file,
    parse_simple_yaml,
)

__all__ = [
    "AXES",
    "AxisDef",
    "CELL_VERSION",
    "Cell",
    "CellResult",
    "RepeatSpec",
    "SweepPlan",
    "SweepResult",
    "SweepSpec",
    "cell_fingerprint",
    "cell_name",
    "cell_path",
    "compare_cells",
    "execute_cell",
    "format_value",
    "load_cell",
    "load_spec_file",
    "parse_selector",
    "parse_simple_yaml",
    "plan_sweep",
    "render_compare",
    "render_plan_table",
    "render_sweep_report",
    "resolve_config",
    "run_sweep",
    "save_cell",
    "sensitivity_tables",
]
