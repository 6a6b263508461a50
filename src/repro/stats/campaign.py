"""The concrete repeat unit: seed in, metric dict out.

:class:`ConfigRepeatSpec` is the picklable description of one repeat: a
whole resolved :class:`StudyConfig` (machine geometry, switch fabric,
scheduler policy, fault profile) plus the shard plan, minus the seed.
``sp2-study repeat`` and sweep cells both build one.  The batch runner
fans a batch of seeds across worker processes on
:func:`repro.parallel.runner.run_tasks`, so a seed whose worker dies is
retried the way a crashed shard is; because each repeat is a pure
function of its seed, the collected samples are identical whatever
worker count executed them.  A repeat keeps only its metric dict, which
reads no telemetry, so its campaign runs with none (no event bus, no
telemetry service, no sharded replay).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.study import StudyConfig, run_study
from repro.parallel.runner import WorkerCrashError, run_tasks
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


def _config_repeat_task(payload: tuple[ConfigRepeatSpec, int]) -> dict[str, float]:
    spec, seed = payload
    return spec.run_one(seed)


def make_config_batch_runner(
    spec: ConfigRepeatSpec, *, workers: int = 1
) -> Callable[[Sequence[int]], list[dict[str, float]]]:
    """A batch executor mapping seeds → metric dicts, order preserved.

    Seeds whose worker dies on every attempt raise
    :class:`~repro.parallel.runner.WorkerCrashError` naming them."""

    def run_batch(seeds: Sequence[int]) -> list[dict[str, float]]:
        seeds = [int(s) for s in seeds]
        try:
            return run_tasks(_config_repeat_task, [(spec, s) for s in seeds], workers=workers)
        except WorkerCrashError as err:
            raise WorkerCrashError([seeds[i] for i in err.failed], err.attempts, "seeds") from None

    return run_batch
