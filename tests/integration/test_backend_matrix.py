"""Campaign-level accrual equivalence: the seed × implementation × worker matrix.

Counters accrue in one :class:`~repro.power2.batch.CounterStore`; the
scalar per-node reference in ``tests/power2/accrual_reference.py`` is
its oracle.  For any seed and any shard plan, a campaign run on the
reference and one run on the store must produce byte-identical
``--json`` output, at every worker count.  This is the system-level
counterpart of the per-node property tests in
``tests/power2/test_batch_equivalence.py``.

The reference runs in-process (a worker pool would not see the swap),
so sharded reference runs use one worker.  Serial and sharded campaigns
are *different experiments* (the shard plan changes the trace
realization the way a different seed would), so each is compared
within its own plan group.
"""

from __future__ import annotations

import pytest

from repro.analysis.export import dataset_to_json
from repro.core.study import StudyConfig, run_study
from repro.faults.profile import PROFILES
from repro.parallel import run_parallel_study
from tests.power2.accrual_reference import reference_accrual, served

SEEDS = [0, 1, 2, 3, 4]
SMALL = dict(n_days=2, n_nodes=16, n_users=6)


def _serial_json(config: StudyConfig) -> str:
    return dataset_to_json(run_study(config))


def _sharded_json(config: StudyConfig, workers: int) -> str:
    return dataset_to_json(run_parallel_study(config, workers=workers, shard_days=1))


class TestSerialMatrix:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_scalar_and_vectorized_serial_runs_identical(self, seed):
        config = StudyConfig(seed=seed, **SMALL)
        with reference_accrual() as built:
            reference = _serial_json(config)
        assert served(built)
        assert _serial_json(config) == reference


class TestShardedMatrix:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_backend_and_worker_count_invariant(self, seed):
        """The in-process reference and the store on {1, 4} workers:
        one byte pattern."""
        config = StudyConfig(seed=seed, **SMALL)
        with reference_accrual() as built:
            reference = _sharded_json(config, workers=1)
        assert served(built)
        assert _sharded_json(config, workers=1) == reference
        assert _sharded_json(config, workers=4) == reference


class TestFaultedCampaigns:
    def test_backends_identical_under_fault_injection(self):
        """Crash/repair schedules (counter freezes, unreachable nodes,
        requeues) accrue identically on the reference and the store."""
        config = StudyConfig(seed=7, fault_profile=PROFILES["pathological"], **SMALL)
        with reference_accrual() as built:
            reference = run_study(config)
        assert served(built)
        assert reference.faults is not None and len(reference.faults.events) > 0
        assert _serial_json(config) == dataset_to_json(reference)
