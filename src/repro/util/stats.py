"""Statistics used by the paper's analysis.

The paper reports moving averages (Figures 1 and 4), means and standard
deviations over a filtered day sample (Tables 2 and 3), and a
*time-weighted* average Mflops per node for the batch-job database (§6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def moving_average(values: np.ndarray | list[float], window: int) -> np.ndarray:
    """Trailing moving average with a warm-up ramp.

    The first ``i < window`` points average everything seen so far, which
    matches how the paper's moving-average curves start at the first day
    rather than after a gap.
    """
    x = np.asarray(values, dtype=float)
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    if x.ndim != 1:
        raise ValueError("moving_average expects a 1-D series")
    if x.size == 0:
        return x.copy()
    csum = np.cumsum(x)
    out = np.empty_like(csum)
    head = min(window, x.size)
    out[:head] = csum[:head] / np.arange(1, head + 1)
    if x.size > window:
        out[window:] = (csum[window:] - csum[:-window]) / window
    return out


@dataclass(frozen=True)
class Summary:
    """Mean/std/min/max of a sample, as reported in Tables 2 and 3."""

    mean: float
    std: float
    min: float
    max: float
    n: int


def summary(values: np.ndarray | list[float]) -> Summary:
    """Sample summary; ``std`` is the population std the paper's era used."""
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        return Summary(0.0, 0.0, 0.0, 0.0, 0)
    return Summary(
        mean=float(np.mean(x)),
        std=float(np.std(x)),
        min=float(np.min(x)),
        max=float(np.max(x)),
        n=int(x.size),
    )


def time_weighted_mean(
    values: np.ndarray | list[float], weights: np.ndarray | list[float]
) -> float:
    """Weighted mean, e.g. per-job Mflops weighted by wall-clock time (§6)."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if v.shape != w.shape:
        raise ValueError(f"shape mismatch: values {v.shape} vs weights {w.shape}")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    total = w.sum()
    if total == 0.0:
        return 0.0
    return float(np.dot(v, w) / total)
