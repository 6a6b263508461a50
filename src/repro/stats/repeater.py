"""The adaptive multi-seed campaign driver.

``Repeater`` runs one measurement function over a stream of seeds in
batches, folds each batch into a :class:`~repro.stats.stopping.SampleHistory`
for the target metric, and stops the moment a convergence rule fires —
or unconditionally at the max-repeats cutoff.  The full per-seed sample
set of *every* collected metric is recorded, not just the target: the
reporting layer attaches confidence intervals to each table cell and
headline from the same run.

Fixed and adaptive campaigns run the same loop: each batch is the next
``batch_size`` seeds of the campaign's seed order, run on
:func:`repro.parallel.runner.run_tasks` over ``workers`` processes (a
seed whose worker dies is retried, like a crashed shard), then checked
against the campaign's stopping checks.  Determinism contract
(mirroring ``repro.parallel``):

* per-seed results are pure functions of the seed, so the result is
  byte-identical whatever worker count executed the batches;
* with an explicit ``seeds`` list the campaign is *fixed*: every seed
  runs, its only check is "the list is done", and the result is
  additionally invariant to ``batch_size``;
* in adaptive mode the seed order is ``seed0, seed0+1, …`` and the
  stopping decision depends only on the accumulated sample — again
  independent of workers, but batch size is part of the experiment
  definition (rules are evaluated at batch boundaries).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.parallel.runner import WorkerCrashError, run_tasks
from repro.stats.estimators import (
    DistributionShape,
    Estimate,
    classify_distribution,
    mean_ci,
)
from repro.stats.stopping import (
    MaxRepeatsRule,
    SampleHistory,
    StopDecision,
    StoppingRule,
)

#: One repeat: seed in, flat ``{metric: value}`` out.
MetricFn = Callable[[int], dict[str, float]]


@dataclass
class RepeatResult:
    """Everything an adaptive campaign measured."""

    #: Seeds actually run, in execution order.
    seeds: list[int]
    #: Seed count of each batch, in order.
    batch_sizes: list[int]
    #: Per-metric samples aligned with ``seeds`` (a metric missing from
    #: some repeat — e.g. a busy-day table on a quiet seed — records
    #: only the seeds that produced it, in ``metric_seeds``).
    samples: dict[str, list[float]]
    #: Seeds that produced each metric (== ``seeds`` for total metrics).
    metric_seeds: dict[str, list[int]]
    #: Why the campaign stopped.
    stopped: StopDecision
    #: The statistic the stopping rules watched.
    target_metric: str
    confidence: float = 0.95

    @property
    def n(self) -> int:
        return len(self.seeds)

    def metrics(self) -> list[str]:
        return sorted(self.samples)

    def sample(self, metric: str) -> list[float]:
        return self.samples[metric]

    def estimate(self, metric: str, confidence: float | None = None) -> Estimate:
        return mean_ci(self.samples[metric], confidence or self.confidence)

    def shape(self, metric: str | None = None) -> DistributionShape:
        return classify_distribution(self.samples[metric or self.target_metric])


@dataclass
class Repeater:
    """Drive ``run_one`` until the target metric converges.

    ``rules`` are evaluated in order after every batch; the first that
    fires names the stop.  ``max_repeats`` is enforced as an implicit
    final :class:`MaxRepeatsRule` so the loop always terminates.  Each
    batch's seeds run on ``workers`` processes (1 = in this process).
    """

    run_one: MetricFn
    rules: Sequence[StoppingRule] = ()
    max_repeats: int = 256
    batch_size: int = 8
    target_metric: str = "value"
    confidence: float = 0.95
    workers: int = 1
    #: Called after each batch with (n_so_far, latest Estimate | None) —
    #: the CLI uses it to narrate convergence.
    on_batch: Callable[[int, Estimate | None], None] | None = field(
        default=None, repr=False
    )

    def __post_init__(self) -> None:
        if self.max_repeats < 1:
            raise ValueError(f"max_repeats must be positive, got {self.max_repeats}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")

    # ------------------------------------------------------------------
    def _run_batch(self, seeds: list[int]) -> list[dict[str, float]]:
        """``run_one`` over ``seeds``, order preserved.  Seeds whose
        worker dies on every attempt raise
        :class:`~repro.parallel.runner.WorkerCrashError` naming them."""
        try:
            return run_tasks(self.run_one, seeds, workers=self.workers)
        except WorkerCrashError as err:
            raise WorkerCrashError([seeds[i] for i in err.failed], err.attempts, "seeds") from None

    def _fold(
        self,
        seeds: list[int],
        results: list[dict[str, float]],
        samples: dict[str, list[float]],
        metric_seeds: dict[str, list[int]],
    ) -> list[float]:
        batch_values: list[float] = []
        for seed, metrics in zip(seeds, results):
            if self.target_metric not in metrics:
                raise KeyError(
                    f"repeat for seed {seed} produced no {self.target_metric!r} "
                    f"(got {sorted(metrics)[:8]}...)"
                )
            for name, value in metrics.items():
                samples.setdefault(name, []).append(float(value))
                metric_seeds.setdefault(name, []).append(seed)
            batch_values.append(float(metrics[self.target_metric]))
        return batch_values

    # ------------------------------------------------------------------
    def run(
        self, *, seed0: int = 0, seeds: Sequence[int] | None = None
    ) -> RepeatResult:
        """Adaptive campaign from ``seed0``, or a fixed ``seeds`` list.

        A fixed list *is* the experiment: every seed runs and neither
        ``rules`` nor ``max_repeats`` applies, so the result is
        invariant to batch size by construction.
        """
        if seeds is None:
            order: Sequence[int] = range(seed0, seed0 + self.max_repeats)
            checks = [rule.check for rule in (*self.rules, MaxRepeatsRule(self.max_repeats))]
        else:
            order = [int(s) for s in seeds]
            if not order:
                raise ValueError("explicit seeds list must not be empty")
            if len(set(order)) != len(order):
                raise ValueError(f"duplicate seeds in {order}")
            done = StopDecision("fixed-seeds", f"ran the full {len(order)}-seed list")
            checks = [lambda history: done if history.n == len(order) else None]

        samples: dict[str, list[float]] = {}
        metric_seeds: dict[str, list[int]] = {}
        history = SampleHistory()
        run_seeds: list[int] = []
        batch_sizes: list[int] = []
        stopped: StopDecision | None = None
        while stopped is None:
            batch = list(order[len(run_seeds) : len(run_seeds) + self.batch_size])
            values = self._fold(batch, self._run_batch(batch), samples, metric_seeds)
            history.extend(values)
            run_seeds.extend(batch)
            batch_sizes.append(len(batch))
            if self.on_batch is not None:
                self.on_batch(history.n, mean_ci(history.values, self.confidence))
            stopped = next(filter(None, (check(history) for check in checks)), None)
        return RepeatResult(
            seeds=run_seeds,
            batch_sizes=batch_sizes,
            samples=samples,
            metric_seeds=metric_seeds,
            stopped=stopped,
            target_metric=self.target_metric,
            confidence=self.confidence,
        )
