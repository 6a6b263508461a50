"""Estimator primitives for adaptive campaigns.

Everything here is numpy + stdlib: the repo deliberately depends on
nothing heavier, so the Student-t quantile is computed from the
regularized incomplete beta function (continued fraction, Numerical
Recipes §6.4) rather than imported from scipy.

Guarantees (pinned by ``tests/stats/test_calibration.py``):

* ``mean_ci`` at 95% nominal coverage covers the true mean of normal,
  lognormal and bimodal synthetic distributions at ≥93% empirical rate;
* ``bootstrap_ci`` is deterministic for a given ``seed``;
* every estimator is order-independent in its input sample.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


# ----------------------------------------------------------------------
# Student-t quantile (no scipy)
# ----------------------------------------------------------------------
def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method)."""
    tiny = 1e-30
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 200):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-12:
            break
    return h


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_cdf(t: float, df: float) -> float:
    """CDF of Student's t with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError(f"df must be positive, got {df}")
    if t == 0.0:
        return 0.5
    tail = 0.5 * betainc(df / 2.0, 0.5, df / (df + t * t))
    return 1.0 - tail if t > 0 else tail


@functools.lru_cache(maxsize=256)
def t_ppf(p: float, df: float) -> float:
    """Quantile of Student's t: the inverse of :func:`t_cdf`.

    Bisection on the CDF with an expanding bracket — df=1 at p=0.975 is
    12.7, so the bracket has to grow before it can shrink.  Accurate to
    ~1e-9, plenty below the Monte-Carlo noise any caller can resolve.
    Memoized: every interval over one sample size asks for one quantile.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if df <= 0:
        raise ValueError(f"df must be positive, got {df}")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -t_ppf(1.0 - p, df)
    lo, hi = 0.0, 1.0
    while t_cdf(hi, df) < p:
        hi *= 2.0
        if hi > 1e12:  # pragma: no cover - p astronomically close to 1
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


# ----------------------------------------------------------------------
# Interval estimates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Estimate:
    """A point estimate with its confidence interval.

    ``rse`` is the relative standard error of the mean; for n < 2 (no
    dispersion information) the interval degenerates to the point and
    ``rse`` is ``inf`` — a single repeat never reads as converged.
    """

    mean: float
    ci_low: float
    ci_high: float
    std: float
    n: int
    confidence: float

    @property
    def halfwidth(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0

    @property
    def relative_halfwidth(self) -> float:
        if self.mean == 0.0:
            return float("inf") if self.halfwidth else 0.0
        return self.halfwidth / abs(self.mean)

    @property
    def rse(self) -> float:
        if self.n < 2:
            return float("inf")
        if self.mean == 0.0:
            return float("inf") if self.std else 0.0
        return (self.std / math.sqrt(self.n)) / abs(self.mean)

    def as_dict(self) -> dict:
        return {
            "mean": self.mean,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "n": self.n,
        }


def mean_ci(sample, confidence: float = 0.95) -> Estimate:
    """Student-t confidence interval for the mean of ``sample``."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    x = np.asarray(sample, dtype=float)
    if x.size == 0:
        raise ValueError("mean_ci needs at least one observation")
    m = float(np.mean(x))
    if x.size == 1:
        return Estimate(m, m, m, 0.0, 1, confidence)
    s = float(np.std(x, ddof=1))
    hw = t_ppf(0.5 + confidence / 2.0, x.size - 1) * s / math.sqrt(x.size)
    return Estimate(m, m - hw, m + hw, s, int(x.size), confidence)


def bootstrap_ci(
    sample,
    stat=np.mean,
    *,
    confidence: float = 0.95,
    n_boot: int = 2000,
    seed: int = 0,
) -> Estimate:
    """Percentile-bootstrap interval for an arbitrary statistic.

    Deterministic for a given ``seed`` — the resampling stream is a
    fresh ``default_rng(seed)``, so two calls with identical arguments
    return identical intervals (the determinism tests rely on it).
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if n_boot < 1:
        raise ValueError(f"n_boot must be positive, got {n_boot}")
    x = np.asarray(sample, dtype=float)
    if x.size == 0:
        raise ValueError("bootstrap_ci needs at least one observation")
    point = float(stat(x))
    if x.size == 1:
        return Estimate(point, point, point, 0.0, 1, confidence)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, x.size, size=(n_boot, x.size))
    reps = np.apply_along_axis(stat, 1, x[idx])
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(reps, [alpha, 1.0 - alpha])
    return Estimate(
        point, float(lo), float(hi), float(np.std(reps, ddof=1)), int(x.size), confidence
    )


def quantile_ci(
    sample,
    q: float,
    *,
    confidence: float = 0.95,
    n_boot: int = 2000,
    seed: int = 0,
) -> Estimate:
    """Bootstrap interval for the ``q`` quantile (e.g. a p99 latency)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    return bootstrap_ci(
        sample,
        lambda v: float(np.quantile(v, q)),
        confidence=confidence,
        n_boot=n_boot,
        seed=seed,
    )


def relative_standard_error(sample) -> float:
    """std-error of the mean over |mean|; ``inf`` when undefined (n<2)."""
    x = np.asarray(sample, dtype=float)
    if x.size < 2:
        return float("inf")
    m = float(np.mean(x))
    s = float(np.std(x, ddof=1))
    if m == 0.0:
        return float("inf") if s else 0.0
    return (s / math.sqrt(x.size)) / abs(m)


# ----------------------------------------------------------------------
# Distributional checks
# ----------------------------------------------------------------------
def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov–Smirnov statistic sup|F_a - F_b|."""
    xa = np.sort(np.asarray(a, dtype=float))
    xb = np.sort(np.asarray(b, dtype=float))
    if xa.size == 0 or xb.size == 0:
        raise ValueError("ks_statistic needs non-empty samples")
    grid = np.concatenate([xa, xb])
    cdf_a = np.searchsorted(xa, grid, side="right") / xa.size
    cdf_b = np.searchsorted(xb, grid, side="right") / xb.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


@dataclass(frozen=True)
class DistributionShape:
    """Result of the unimodal-vs-multimodal classifier."""

    label: str  # "unimodal" | "multimodal" | "insufficient"
    modes: int
    #: AIC(1 component) - AIC(best 2-component split); positive favours
    #: the split.  0.0 when the sample was too small to classify.
    aic_gain: float
    #: Best split point when ``multimodal``, else ``None``.
    split: float | None = None

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "modes": self.modes,
            "aic_gain": self.aic_gain,
            "split": self.split,
        }


def _gauss_loglik(x: np.ndarray) -> float:
    """Max log-likelihood of a Gaussian fit (MLE variance, floored)."""
    var = max(float(np.var(x)), 1e-18)
    return -0.5 * x.size * (math.log(2.0 * math.pi * var) + 1.0)


def classify_distribution(sample, *, min_n: int = 8, min_cluster: int = 3) -> DistributionShape:
    """Unimodal vs multimodal, the SHARP ``aic``/``jenks`` shape.

    Fits one Gaussian against the best two-cluster hard split (every
    Jenks-style break of the sorted sample is tried) and compares AIC:
    one component has 2 parameters, the split mixture 5.  A split only
    wins when both clusters keep ``min_cluster`` members and the AIC
    gain is positive — heavy but *contiguous* tails stay unimodal, a
    paging-storm's bimodal lobes do not.
    """
    x = np.sort(np.asarray(sample, dtype=float))
    if x.size < min_n:
        return DistributionShape("insufficient", 1, 0.0)
    aic_one = 2 * 2 - 2 * _gauss_loglik(x)
    best_gain, best_split = -float("inf"), None
    for k in range(min_cluster, x.size - min_cluster + 1):
        left, right = x[:k], x[k:]
        w_l, w_r = k / x.size, (x.size - k) / x.size
        loglik = (
            _gauss_loglik(left)
            + _gauss_loglik(right)
            + k * math.log(w_l)
            + (x.size - k) * math.log(w_r)
        )
        gain = aic_one - (2 * 5 - 2 * loglik)
        if gain > best_gain:
            best_gain = gain
            best_split = float((left[-1] + right[0]) / 2.0)
    if best_split is not None and best_gain > 0.0:
        return DistributionShape("multimodal", 2, best_gain, best_split)
    return DistributionShape("unimodal", 1, best_gain if best_split is not None else 0.0)
