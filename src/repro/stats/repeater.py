"""The adaptive multi-seed campaign driver.

``Repeater`` runs one measurement function over a stream of seeds in
batches, folds each batch into a :class:`~repro.stats.stopping.SampleHistory`
for the target metric, and stops the moment a convergence rule fires —
or unconditionally at the max-repeats cutoff.  The full per-seed sample
set of *every* collected metric is recorded, not just the target: the
reporting layer attaches confidence intervals to each table cell and
headline from the same run.

Determinism contract (mirroring ``repro.parallel``):

* per-seed results are pure functions of the seed, so the result is
  byte-identical whatever worker count executed the batches;
* with an explicit ``seeds`` list the campaign is *fixed*: every seed
  runs, no adaptive evaluation happens mid-stream, and the result is
  additionally invariant to ``batch_size``;
* in adaptive mode the seed stream is ``seed0, seed0+1, …`` and the
  stopping decision depends only on the accumulated sample — again
  independent of workers, but batch size is part of the experiment
  definition (rules are evaluated at batch boundaries).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

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
#: Optional batch executor: seeds in, per-seed metric dicts out, order
#: preserved (the campaign layer supplies one on worker processes).
BatchRunner = Callable[[Sequence[int]], list[dict[str, float]]]


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

    def convergence_trace(self) -> list[int]:
        """Cumulative repeat counts at each batch boundary."""
        out, total = [], 0
        for size in self.batch_sizes:
            total += size
            out.append(total)
        return out


@dataclass
class Repeater:
    """Drive ``run_one`` until the target metric converges.

    ``rules`` are evaluated in order after every batch; the first that
    fires names the stop.  ``max_repeats`` is enforced as an implicit
    final :class:`MaxRepeatsRule` so the loop always terminates.
    ``batch_runner`` overrides how a batch of seeds is executed (the
    campaign layer plugs its worker processes in here); the default maps
    serially in-process.
    """

    run_one: MetricFn
    rules: Sequence[StoppingRule] = ()
    max_repeats: int = 256
    batch_size: int = 8
    target_metric: str = "value"
    confidence: float = 0.95
    batch_runner: BatchRunner | None = None
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
        if self.batch_runner is not None:
            results = self.batch_runner(seeds)
            if len(results) != len(seeds):
                raise RuntimeError(
                    f"batch runner returned {len(results)} results for "
                    f"{len(seeds)} seeds"
                )
            return results
        return [self.run_one(seed) for seed in seeds]

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
        """Adaptive campaign from ``seed0``, or a fixed ``seeds`` list."""
        samples: dict[str, list[float]] = {}
        metric_seeds: dict[str, list[int]] = {}
        history = SampleHistory()
        run_seeds: list[int] = []
        batch_sizes: list[int] = []

        if seeds is not None:
            seed_list = [int(s) for s in seeds]
            if not seed_list:
                raise ValueError("explicit seeds list must not be empty")
            if len(set(seed_list)) != len(seed_list):
                raise ValueError(f"duplicate seeds in {seed_list}")
            # Fixed campaign: the seed list *is* the experiment — every
            # seed runs and no mid-stream decision happens, so the
            # result is invariant to batch size by construction.
            for start in range(0, len(seed_list), self.batch_size):
                batch = seed_list[start : start + self.batch_size]
                values = self._fold(
                    batch, self._run_batch(batch), samples, metric_seeds
                )
                history.extend(values)
                run_seeds.extend(batch)
                batch_sizes.append(len(batch))
                if self.on_batch is not None:
                    self.on_batch(history.n, mean_ci(history.values, self.confidence))
            stopped = StopDecision(
                "fixed-seeds", f"ran the full {len(seed_list)}-seed list"
            )
            return RepeatResult(
                seeds=run_seeds,
                batch_sizes=batch_sizes,
                samples=samples,
                metric_seeds=metric_seeds,
                stopped=stopped,
                target_metric=self.target_metric,
                confidence=self.confidence,
            )

        cutoff = MaxRepeatsRule(self.max_repeats)
        stopped: StopDecision | None = None
        while stopped is None:
            want = min(self.batch_size, self.max_repeats - history.n)
            batch = [seed0 + len(run_seeds) + i for i in range(want)]
            values = self._fold(batch, self._run_batch(batch), samples, metric_seeds)
            history.extend(values)
            run_seeds.extend(batch)
            batch_sizes.append(len(batch))
            if self.on_batch is not None:
                self.on_batch(history.n, mean_ci(history.values, self.confidence))
            for rule in self.rules:
                stopped = rule.check(history)
                if stopped is not None:
                    break
            if stopped is None:
                stopped = cutoff.check(history)
        return RepeatResult(
            seeds=run_seeds,
            batch_sizes=batch_sizes,
            samples=samples,
            metric_seeds=metric_seeds,
            stopped=stopped,
            target_metric=self.target_metric,
            confidence=self.confidence,
        )
