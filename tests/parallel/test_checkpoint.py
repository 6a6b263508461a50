"""Per-shard checkpoint files: fingerprints, atomicity, staleness."""

import os
import pickle
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings

from repro.core.study import StudyConfig
from repro.faults.profile import PROFILES
from repro.hpm.collector import SystemSample
from repro.parallel.checkpoint import (
    CHECKPOINT_VERSION,
    config_fingerprint,
    load_shard_result,
    save_shard_result,
    shard_path,
)
from repro.parallel.plan import Shard
from repro.parallel.worker import ShardResult
from repro.pbs.job import JobRecord
from repro.power2.counters import FLAT_NAMES
from tests.spec_fuzz import damaged

CONFIG = StudyConfig(seed=3, n_days=4, n_nodes=16, n_users=6)

#: ``config_fingerprint`` of the pathological 4-shard campaign pinned
#: below.  It moves only when ``StudyConfig``'s repr or the checkpoint
#: format version does.
PINNED_FINGERPRINT = "724a4f65041d4fb1cd25acec34535572afab5eb303685e422c0e52f9eb0ffece"


def tiny_result(index: int = 0) -> ShardResult:
    return ShardResult(
        shard=Shard(index=index, day_start=index, day_end=index + 1),
        samples=[],
        records=[],
        utilization_probes=[(0.0, 0)],
        submissions=[],
        demand_levels=np.zeros(1),
        events_processed=7,
    )


class TestFingerprint:
    def test_stable_for_identical_campaigns(self):
        assert config_fingerprint(CONFIG, 4) == config_fingerprint(
            StudyConfig(seed=3, n_days=4, n_nodes=16, n_users=6), 4
        )

    def test_sensitive_to_every_campaign_knob(self):
        base = config_fingerprint(CONFIG, 4)
        assert config_fingerprint(CONFIG, 5) != base  # shard plan
        for other in (
            StudyConfig(seed=4, n_days=4, n_nodes=16, n_users=6),
            StudyConfig(seed=3, n_days=5, n_nodes=16, n_users=6),
            StudyConfig(
                seed=3,
                n_days=4,
                n_nodes=16,
                n_users=6,
                fault_profile=PROFILES["mild"],
            ),
        ):
            assert config_fingerprint(other, 4) != base

    def test_fingerprint_is_pinned(self):
        """Checkpoints are keyed by a hash of ``StudyConfig``'s repr: a
        changed field, order or default would silently invalidate every
        checkpoint a resumable campaign left behind."""
        faulted = StudyConfig(
            seed=7, n_days=4, n_nodes=32, n_users=8, fault_profile=PROFILES["pathological"]
        )
        assert config_fingerprint(faulted, 4) == PINNED_FINGERPRINT


class TestRoundTrip:
    def test_save_then_load(self, tmp_path):
        fp = config_fingerprint(CONFIG, 4)
        result = tiny_result(2)
        path = save_shard_result(str(tmp_path), fp, result)
        assert path == shard_path(str(tmp_path), 2)
        loaded = load_shard_result(str(tmp_path), fp, 2)
        assert loaded is not None
        assert loaded.shard == result.shard
        assert loaded.events_processed == result.events_processed
        assert np.array_equal(loaded.demand_levels, result.demand_levels)

    def test_save_leaves_no_temp_files(self, tmp_path):
        save_shard_result(str(tmp_path), "fp", tiny_result())
        assert os.listdir(tmp_path) == ["shard-0000.pkl"]


class TestStaleness:
    """Every defect degrades to None — the caller recomputes, never
    trusts a stale or torn file."""

    def test_missing_file(self, tmp_path):
        assert load_shard_result(str(tmp_path), "fp", 0) is None

    def test_fingerprint_mismatch(self, tmp_path):
        save_shard_result(str(tmp_path), "fp-a", tiny_result())
        assert load_shard_result(str(tmp_path), "fp-b", 0) is None

    def test_wrong_shard_index_inside_envelope(self, tmp_path):
        save_shard_result(str(tmp_path), "fp", tiny_result(0))
        os.rename(shard_path(str(tmp_path), 0), shard_path(str(tmp_path), 1))
        assert load_shard_result(str(tmp_path), "fp", 1) is None

    def test_truncated_pickle(self, tmp_path):
        path = save_shard_result(str(tmp_path), "fp", tiny_result())
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 2])
        assert load_shard_result(str(tmp_path), "fp", 0) is None

    def test_version_mismatch(self, tmp_path):
        path = shard_path(str(tmp_path), 0)
        envelope = {
            "version": CHECKPOINT_VERSION + 1,
            "fingerprint": "fp",
            "shard_index": 0,
            "result": tiny_result(),
        }
        with open(path, "wb") as fh:
            pickle.dump(envelope, fh)
        assert load_shard_result(str(tmp_path), "fp", 0) is None

    def test_garbage_payload(self, tmp_path):
        with open(shard_path(str(tmp_path), 0), "wb") as fh:
            pickle.dump(["not", "an", "envelope"], fh)
        assert load_shard_result(str(tmp_path), "fp", 0) is None


def rich_result() -> ShardResult:
    """A small shard result holding every kind of object a real one
    pickles: samples with int64 matrices, a job record, probes."""
    matrix = np.arange(2 * len(FLAT_NAMES), dtype=np.int64).reshape(2, -1)
    record = JobRecord(
        job_id=1,
        user=0,
        app_name="cfd",
        nodes_requested=2,
        node_ids=(0, 1),
        submit_time=0.0,
        start_time=1.0,
        end_time=901.0,
        deltas=matrix,
    )
    return ShardResult(
        shard=Shard(index=0, day_start=0, day_end=1),
        samples=[
            SystemSample(time=0.0, node_ids=(0, 1), matrix=matrix),
            SystemSample(time=900.0, node_ids=(0,), matrix=matrix[:1] * 2, missing=(1,)),
        ],
        records=[record],
        utilization_probes=[(0.0, 2), (900.0, 1)],
        submissions=[],
        demand_levels=np.ones(3),
        events_processed=11,
    )


#: What :func:`save_shard_result` writes for :func:`rich_result`.
VALID_CHECKPOINT = pickle.dumps(
    {"version": CHECKPOINT_VERSION, "fingerprint": "fp", "shard_index": 0, "result": rich_result()},
    protocol=pickle.HIGHEST_PROTOCOL,
)


class TestCorruptedFiles:
    """A checkpoint whose bytes were damaged loads as a shard result or
    as a miss (None); it never raises."""

    def test_fuzz_seed_is_a_saved_checkpoint(self, tmp_path):
        path = save_shard_result(str(tmp_path), "fp", rich_result())
        assert Path(path).read_bytes() == VALID_CHECKPOINT

    def test_bad_protocol_byte_is_a_miss(self, tmp_path):
        """Byte 1 of a pickle is its protocol number; 255 makes
        ``pickle.load`` raise ValueError, which resume used to die on."""
        path = save_shard_result(str(tmp_path), "fp", rich_result())
        with open(path, "r+b") as fh:
            fh.seek(1)
            fh.write(b"\xff")
        assert load_shard_result(str(tmp_path), "fp", 0) is None

    def test_envelope_without_a_shard_result_is_a_miss(self, tmp_path):
        envelope = {"version": CHECKPOINT_VERSION, "fingerprint": "fp", "shard_index": 0}
        for result in ({}, None, "result"):
            with open(shard_path(str(tmp_path), 0), "wb") as fh:
                pickle.dump({**envelope, "result": result}, fh)
            assert load_shard_result(str(tmp_path), "fp", 0) is None

    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=damaged(VALID_CHECKPOINT))
    def test_damaged_checkpoint_loads_or_misses(self, tmp_path, data):
        Path(shard_path(str(tmp_path), 0)).write_bytes(data)
        loaded = load_shard_result(str(tmp_path), "fp", 0)
        assert loaded is None or isinstance(loaded, ShardResult)
