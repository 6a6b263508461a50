"""Resilience contract, end to end.

Two properties hold simultaneously (ISSUE 4's acceptance bar):

* a faulted campaign is a pure function of ``(seed, profile, shard
  plan)`` — worker count never changes a byte of the merged output;
* a campaign interrupted by a crashed shard worker and then retried (or
  resumed from its checkpoints) merges to output byte-identical to an
  uninterrupted run.

The simulated crash is driven by the ``REPRO_CRASH_SHARD`` env hook —
the same knob the CI fault-smoke job uses.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

import repro.parallel.runner as runner
import repro.parallel.worker as worker
from repro.analysis.export import dataset_to_json
from repro.analysis.opsreport import campaign_ops_digest
from repro.core.study import StudyConfig
from repro.faults.profile import PROFILES
from repro.parallel import ShardExecutionError, run_parallel_study
from repro.parallel.worker import CRASH_ENV_VAR

CONFIG = StudyConfig(
    seed=3, n_days=4, n_nodes=16, n_users=6, fault_profile=PROFILES["pathological"]
)
SHARD_DAYS = 1  # 4 shards: enough to occupy every worker count under test


def assert_identical(a, b) -> None:
    """Byte-level equality of everything an operator can observe."""
    assert a.collector.intervals() == b.collector.intervals()
    sa, sb = a.collector.samples, b.collector.samples
    assert len(sa) == len(sb)
    for x, y in zip(sa, sb):
        assert x.time == y.time
        assert x.node_ids == y.node_ids
        assert x.missing == y.missing
        assert np.array_equal(x.matrix, y.matrix)
    assert [r.job_id for r in a.accounting.records] == [
        r.job_id for r in b.accounting.records
    ]
    assert campaign_ops_digest(a) == campaign_ops_digest(b)
    assert dataset_to_json(a) == dataset_to_json(b)
    la, lb = a.faults, b.faults
    assert (la is None) == (lb is None)
    if la is not None:
        assert la.events == lb.events
        assert (la.jobs_killed, la.jobs_requeued, la.passes_dropped) == (
            lb.jobs_killed,
            lb.jobs_requeued,
            lb.passes_dropped,
        )


@pytest.fixture(scope="module")
def reference():
    """The uninterrupted 1-worker run of the faulted shard plan."""
    return run_parallel_study(CONFIG, workers=1, shard_days=SHARD_DAYS)


class TestWorkerCountInvariance:
    def test_faults_actually_fired(self, reference):
        assert reference.faults is not None
        assert len(reference.faults.events) > 0

    @pytest.mark.parametrize("workers", [2, 4])
    def test_faulted_campaign_identical_across_worker_counts(self, reference, workers):
        parallel = run_parallel_study(CONFIG, workers=workers, shard_days=SHARD_DAYS)
        assert_identical(reference, parallel)


class TestCrashRecovery:
    def test_crashed_worker_is_retried_to_identical_output(
        self, reference, tmp_path, monkeypatch
    ):
        """One worker dies mid-campaign; the runner sees the dead
        worker, retries its shard, and the merged output matches the
        uninterrupted run byte for byte."""
        monkeypatch.setenv(CRASH_ENV_VAR, "1")
        monkeypatch.setattr(runner.time, "sleep", lambda seconds: None)
        recovered = run_parallel_study(
            CONFIG,
            workers=2,
            shard_days=SHARD_DAYS,
            checkpoint_dir=str(tmp_path),
        )
        # The crash actually happened (the marker proves the death).
        assert (tmp_path / ".crashed-1").exists()
        assert_identical(reference, recovered)
        assert multiprocessing.active_children() == []

    def test_a_dead_worker_costs_only_its_own_shard(self, reference, tmp_path, monkeypatch):
        """Shard 1's worker dies with retries disabled: the error names
        shard 1 alone, its three siblings are checkpointed, and the
        resume recomputes shard 1 alone, to byte-identical output."""
        monkeypatch.setenv(CRASH_ENV_VAR, "1")
        with pytest.raises(ShardExecutionError) as err:
            run_parallel_study(
                CONFIG,
                workers=2,
                shard_days=SHARD_DAYS,
                checkpoint_dir=str(tmp_path),
                max_attempts=1,
            )
        assert err.value.shard_indices == [1]
        assert "shards [1] failed" in str(err.value)
        assert sorted(p.name for p in tmp_path.glob("shard-*.pkl")) == [
            "shard-0000.pkl",
            "shard-0002.pkl",
            "shard-0003.pkl",
        ]
        assert multiprocessing.active_children() == []

        monkeypatch.delenv(CRASH_ENV_VAR)
        computed = []
        run_shard = worker.run_shard

        def spy(config, shard, *args, **kwargs):
            computed.append(shard.index)
            return run_shard(config, shard, *args, **kwargs)

        monkeypatch.setattr(worker, "run_shard", spy)
        resumed = run_parallel_study(
            CONFIG,
            workers=1,
            shard_days=SHARD_DAYS,
            checkpoint_dir=str(tmp_path),
            resume=True,
        )
        assert computed == [1]
        assert_identical(reference, resumed)

    def test_kill_then_resume_is_byte_identical(self, reference, tmp_path, monkeypatch):
        """With retries disabled the campaign hard-fails; a --resume run
        picks up the surviving checkpoints and completes identically."""
        monkeypatch.setenv(CRASH_ENV_VAR, "1")
        with pytest.raises(ShardExecutionError) as err:
            run_parallel_study(
                CONFIG,
                workers=1,  # in-process: siblings complete, shard 1 dies
                shard_days=SHARD_DAYS,
                checkpoint_dir=str(tmp_path),
                max_attempts=1,
            )
        assert 1 in err.value.shard_indices
        # Shard 0 finished before the crash and left its checkpoint.
        assert (tmp_path / "shard-0000.pkl").exists()

        monkeypatch.delenv(CRASH_ENV_VAR)
        resumed = run_parallel_study(
            CONFIG,
            workers=1,
            shard_days=SHARD_DAYS,
            checkpoint_dir=str(tmp_path),
            resume=True,
        )
        assert_identical(reference, resumed)

    def test_resume_recomputes_a_corrupted_checkpoint(self, reference, tmp_path):
        """A checkpoint whose pickle no longer decodes (protocol byte
        overwritten with 0xff) is recomputed, not a crashed resume."""
        run_parallel_study(CONFIG, workers=1, shard_days=SHARD_DAYS, checkpoint_dir=str(tmp_path))
        with open(tmp_path / "shard-0001.pkl", "r+b") as fh:
            fh.seek(1)
            fh.write(b"\xff")
        resumed = run_parallel_study(
            CONFIG,
            workers=1,
            shard_days=SHARD_DAYS,
            checkpoint_dir=str(tmp_path),
            resume=True,
        )
        assert_identical(reference, resumed)

    def test_resume_ignores_stale_checkpoints(self, reference, tmp_path):
        """Checkpoints from a different campaign definition are
        recomputed, not trusted."""
        other = StudyConfig(
            seed=99, n_days=4, n_nodes=16, n_users=6, fault_profile=PROFILES["mild"]
        )
        run_parallel_study(other, workers=1, shard_days=SHARD_DAYS, checkpoint_dir=str(tmp_path))
        resumed = run_parallel_study(
            CONFIG,
            workers=1,
            shard_days=SHARD_DAYS,
            checkpoint_dir=str(tmp_path),
            resume=True,
        )
        assert_identical(reference, resumed)
