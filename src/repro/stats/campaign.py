"""The concrete repeat unit: seed in, metric dict out.

:class:`ConfigRepeatSpec` is the picklable description of one repeat: a
whole resolved :class:`StudyConfig` (machine geometry, switch fabric,
scheduler policy, fault profile) plus the shard plan, minus the seed.
``sp2-study repeat`` and sweep cells both hand its ``run_one`` to a
:class:`~repro.stats.repeater.Repeater`, which fans each batch of seeds
across its worker processes; because each repeat is a pure function of
its seed, the collected samples are identical whatever worker count
executed them.  A repeat keeps only its metric dict, which reads no
telemetry, so its campaign runs with none (no event bus, no telemetry
service, no sharded replay).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.core.study import StudyConfig, run_study
from repro.stats.metrics import collect_metrics


@dataclass(frozen=True)
class ConfigRepeatSpec:
    """One repeat over a resolved :class:`StudyConfig`.

    The spec is picklable (all nested configs are frozen dataclasses of
    plain values), so batches fan across worker processes.
    """

    config: StudyConfig
    #: Shard width for within-campaign sharded execution (None = serial).
    shard_days: int | None = None

    def run_one(self, seed: int) -> dict[str, float]:
        cfg = (
            self.config
            if seed == self.config.seed
            else dataclasses.replace(self.config, seed=seed)
        )
        return collect_metrics(run_study(cfg, shard_days=self.shard_days, telemetry=False))
