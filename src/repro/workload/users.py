"""User population and demand model.

§5 attributes Figure 1's large day-to-day swings to *load demand*, not
code variability: "The fluctuations shown in Figure 1 result more from
load demand than code variability."  The demand model is therefore an
AR(1) day-level random walk over target machine load, modulated by a
weekly pattern, and the user population maps each submission to a user
with persistent application preferences (users resubmit the same codes
for months — which keeps Figure 4's per-node-count histories flat, as
the paper observed: no improvement trend over time).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.rng import choice_cdf, choice_index
from repro.workload.apps import popularity_weights


@dataclass(frozen=True)
class UserProfile:
    """One account: preference weights over the application catalog."""

    user_id: int
    app_names: tuple[str, ...]
    app_weights: np.ndarray
    _app_cdf: list[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_app_cdf", choice_cdf(self.app_weights))

    def pick_app(self, rng: np.random.Generator) -> str:
        """``rng.choice(app_names, p=app_weights)``, drawn from the
        prebuilt table."""
        return self.app_names[choice_index(self._app_cdf, rng)]


class UserPopulation:
    """A fixed population with Dirichlet-skewed app preferences."""

    def __init__(self, n_users: int, rng: np.random.Generator) -> None:
        if n_users <= 0:
            raise ValueError("need at least one user")
        names, base = popularity_weights()
        self.users: list[UserProfile] = []
        for uid in range(n_users):
            # Concentrated Dirichlet around the global popularity makes
            # each user favour a couple of codes without erasing the
            # global mix.
            prefs = rng.dirichlet(base * 12.0 + 0.05)
            self.users.append(
                UserProfile(user_id=uid, app_names=tuple(names), app_weights=prefs)
            )

    def __len__(self) -> int:
        return len(self.users)

    def pick_user(self, rng: np.random.Generator) -> UserProfile:
        return self.users[int(rng.integers(len(self.users)))]


class DemandModel:
    """AR(1) day-level target load with a weekly rhythm.

    ``demand(day)`` returns the target fraction of machine node-seconds
    users will try to consume that day.  Calibrated so the *achieved*
    utilization averages ≈0.64 with a ≈0.95 ceiling (§5), once queueing
    losses are taken.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        n_days: int,
        *,
        mean: float = 0.44,
        phi: float = 0.82,
        sigma: float = 0.16,
        weekend_factor: float = 0.62,
    ) -> None:
        if n_days <= 0:
            raise ValueError("need at least one day")
        if not 0.0 <= phi < 1.0:
            raise ValueError("phi must be in [0, 1)")
        self.n_days = n_days
        levels = np.empty(n_days)
        x = mean
        for d in range(n_days):
            x = mean + phi * (x - mean) + rng.normal(0.0, sigma)
            weekly = weekend_factor if d % 7 in (5, 6) else 1.0
            levels[d] = np.clip(x * weekly, 0.05, 1.08)
        self.levels = levels

    def demand(self, day: int) -> float:
        return float(self.levels[day])

    def submit_time_in_day(self, rng: np.random.Generator) -> float:
        """Seconds-into-day of one submission: a work-hours bulge over a
        uniform floor (batch scripts also fire overnight)."""
        if rng.random() < 0.65:
            # Work-hours bulge centred mid-afternoon.
            t = rng.normal(14.5 * 3600.0, 3.2 * 3600.0)
            return min(max(t, 0.0), 86399.0)
        return float(rng.uniform(0.0, 86400.0))
