"""Shared utilities for the SP2/HPM reproduction.

This subpackage holds the small, dependency-free building blocks used by
every other layer: physical-unit helpers and machine constants
(:mod:`repro.util.units`), deterministic random-stream management
(:mod:`repro.util.rng`), statistics used by the paper's analysis
(:mod:`repro.util.stats`), and plain-text rendering of tables and figures
(:mod:`repro.util.tables`, :mod:`repro.util.asciiplot`).
"""

from repro.util.units import (
    KILO,
    MEGA,
    GIGA,
    MICROSECOND,
    bytes_per_word,
    mflops,
    gflops,
    per_second_to_mega,
)
from repro.util.rng import RngStreams
from repro.util.stats import (
    moving_average,
    summary,
    time_weighted_mean,
)
from repro.util.tables import Table, render_table
from repro.util.asciiplot import ascii_scatter, ascii_series, ascii_histogram

__all__ = [
    "KILO",
    "MEGA",
    "GIGA",
    "MICROSECOND",
    "bytes_per_word",
    "mflops",
    "gflops",
    "per_second_to_mega",
    "RngStreams",
    "moving_average",
    "summary",
    "time_weighted_mean",
    "Table",
    "render_table",
    "ascii_scatter",
    "ascii_series",
    "ascii_histogram",
]
