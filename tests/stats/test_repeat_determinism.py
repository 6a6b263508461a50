"""``sp2-study repeat`` determinism: workers and batch size are
execution detail, never part of the result.

A fixed seed list defines the experiment completely — every seed runs,
no adaptive decision happens mid-stream — so the summary JSON must be
byte-identical whatever worker count executed the batches, and the
measured samples identical under any batch partition (batch boundaries
are recorded as execution metadata, which is the only field allowed to
differ)."""

import json
import multiprocessing
import os
import pathlib

import pytest

import repro.parallel.runner as runner
from repro.core.study import StudyConfig
from repro.stats.campaign import ConfigRepeatSpec
from repro.stats.cli import repeat_main
from repro.stats.metrics import DEFAULT_TARGET_METRIC
from repro.stats.repeater import Repeater

#: Tiny campaigns: 3 seeds x 2 days x 16 nodes keep the test under a
#: few seconds while still producing real jobs.
ARGS = [
    "--days", "2", "--nodes", "16", "--users", "6", "--seeds", "0,1,2",
]


def run_repeat(tmp_path, name, extra):
    out = tmp_path / f"{name}.json"
    rc = repeat_main([*ARGS, *extra, "--json", str(out)])
    assert rc == 0
    return out.read_bytes()


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("repeat-ref")
    return run_repeat(tmp, "ref", ["--workers", "1", "--batch", "2"])


class TestWorkerInvariance:
    def test_workers_4_is_byte_identical(self, tmp_path, reference):
        parallel = run_repeat(tmp_path, "w4", ["--workers", "4", "--batch", "2"])
        assert parallel == reference


class TestBatchInvariance:
    def test_batch_size_only_moves_execution_metadata(self, tmp_path, reference):
        ref = json.loads(reference)
        one_batch = json.loads(run_repeat(tmp_path, "b3", ["--workers", "1", "--batch", "3"]))
        assert ref["repeat"].pop("batch_sizes") == [2, 1]
        assert one_batch["repeat"].pop("batch_sizes") == [3]
        assert one_batch == ref

    def test_oversized_batch_matches_too(self, tmp_path, reference):
        ref = json.loads(reference)
        big = json.loads(run_repeat(tmp_path, "b8", ["--workers", "1", "--batch", "8"]))
        ref["repeat"].pop("batch_sizes")
        big["repeat"].pop("batch_sizes")
        assert big == ref


class TestFixedSeedSemantics:
    def test_seed_list_is_the_experiment(self, reference):
        payload = json.loads(reference)
        assert payload["repeat"]["rule"] == "fixed-seeds"
        assert payload["repeat"]["seeds"] == [0, 1, 2]
        assert payload["repeat"]["n"] == 3
        for est in payload["campaign"].values():
            assert est["n"] == 3


#: Marker file that records seed 1's worker death (set by the test).
_DIED: pathlib.Path | None = None

#: Tiny campaigns as a repeat unit, for driving the Repeater directly.
_UNIT = ConfigRepeatSpec(config=StudyConfig(seed=0, n_days=2, n_nodes=16, n_users=6))


def _seed_1_dies_once(seed: int) -> dict[str, float]:
    if seed == 1 and not _DIED.exists() and multiprocessing.parent_process() is not None:
        _DIED.write_text("seed 1's worker died\n")
        os._exit(3)
    return _UNIT.run_one(seed)


class TestDeadSeedWorker:
    def test_repeat_survives_a_dead_seed_worker(self, tmp_path, monkeypatch):
        """Seed 1's worker dies once: the seed is retried and the
        campaign matches a one-worker run's."""

        def run(run_one, workers):
            return Repeater(
                run_one=run_one, batch_size=3, target_metric=DEFAULT_TARGET_METRIC,
                workers=workers,
            ).run(seeds=[0, 1, 2])

        serial = run(_UNIT.run_one, 1)
        monkeypatch.setattr(f"{__name__}._DIED", tmp_path / "died")
        monkeypatch.setattr(runner.time, "sleep", lambda seconds: None)
        parallel = run(_seed_1_dies_once, 2)
        assert (tmp_path / "died").exists()
        assert parallel == serial
        assert multiprocessing.active_children() == []
