"""Per-shard checkpoint files: fingerprints, atomicity, staleness."""

import dataclasses
import hashlib
import importlib
import os
import pickle
import pickletools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis.export import dataset_to_json
from repro.core.study import StudyConfig, run_study
from repro.faults.profile import PROFILES
from repro.hpm.collector import SystemSample
from repro.parallel.checkpoint import (
    CHECKPOINT_VERSION,
    config_fingerprint,
    load_shard_result,
    save_shard_result,
    sha256_fingerprint,
    shard_path,
)
from repro.parallel.plan import Shard
from repro.parallel.worker import ShardResult, run_shard
from repro.pbs.job import JobRecord
from repro.power2.counters import FLAT_NAMES
from tests.spec_fuzz import damaged

CONFIG = StudyConfig(seed=3, n_days=4, n_nodes=16, n_users=6)

#: ``config_fingerprint`` of the pathological 4-shard campaign pinned
#: below.  It moves only when ``StudyConfig``'s repr or the checkpoint
#: format version does.
PINNED_FINGERPRINT = "7fdf30192d3d6627159f0a5ecda563d8d0242833b79764e693de53adba80e3eb"


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


def envelope(result: object) -> dict:
    """The envelope :func:`save_shard_result` writes for shard 0 under
    fingerprint ``"fp"``: the result as pickled bytes and their sha256."""
    payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    return {
        "version": CHECKPOINT_VERSION,
        "fingerprint": "fp",
        "shard_index": 0,
        "sha256": hashlib.sha256(payload).hexdigest(),
        "result": payload,
    }


#: What :func:`save_shard_result` writes for :func:`rich_result`.
VALID_CHECKPOINT = pickle.dumps(envelope(rich_result()), protocol=pickle.HIGHEST_PROTOCOL)


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
        header = {"version": CHECKPOINT_VERSION, "fingerprint": "fp", "shard_index": 0}
        for result in ({}, None, "result"):
            with open(shard_path(str(tmp_path), 0), "wb") as fh:
                pickle.dump({**header, "result": result}, fh)
            assert load_shard_result(str(tmp_path), "fp", 0) is None

    def test_checksummed_payload_that_is_not_a_shard_result_is_a_miss(self, tmp_path):
        for result in ({}, None, "result", tiny_result().shard):
            with open(shard_path(str(tmp_path), 0), "wb") as fh:
                pickle.dump(envelope(result), fh)
            assert load_shard_result(str(tmp_path), "fp", 0) is None

    def test_a_payload_that_fails_its_checksum_is_a_miss(self, tmp_path):
        """The envelope's sha256 covers the result's bytes; bytes that
        still unpickle but were not the ones saved are not trusted."""
        good = envelope(tiny_result())
        other = envelope(dataclasses.replace(tiny_result(), events_processed=8))
        for swapped in ({**good, "sha256": other["sha256"]}, {**good, "result": other["result"]},
                        {**good, "sha256": None}, {**good, "result": "not bytes"}):
            with open(shard_path(str(tmp_path), 0), "wb") as fh:
                pickle.dump(swapped, fh)
            assert load_shard_result(str(tmp_path), "fp", 0) is None
        with open(shard_path(str(tmp_path), 0), "wb") as fh:
            pickle.dump(good, fh)
        assert load_shard_result(str(tmp_path), "fp", 0).events_processed == 7

    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=damaged(VALID_CHECKPOINT))
    def test_damaged_checkpoint_loads_or_misses(self, tmp_path, data):
        Path(shard_path(str(tmp_path), 0)).write_bytes(data)
        loaded = load_shard_result(str(tmp_path), "fp", 0)
        assert loaded is None or isinstance(loaded, ShardResult)


# ----------------------------------------------------------------------
# The pickled format, pinned per version
# ----------------------------------------------------------------------
_SHARD_RECORDS = {
    "repro.faults.events:FaultEvent": ("dataclass", ("time", "kind", "target", "value")),
    "repro.faults.events:FaultLog": (
        "dataclass",
        (
            "events", "horizon_seconds", "n_nodes", "jobs_killed", "jobs_requeued",
            "retries_exhausted", "passes_dropped", "node_down_seconds",
            "switch_degraded_seconds", "storm_seconds",
        ),
    ),
    "repro.parallel.plan:Shard": ("dataclass", ("index", "day_start", "day_end")),
    "repro.pbs.job:JobRecord": (
        "dataclass",
        (
            "job_id", "user", "app_name", "nodes_requested", "node_ids", "submit_time",
            "start_time", "end_time", "deltas",
        ),
    ),
    "repro.tracing.span:Span": (
        "dataclass", ("span_id", "name", "category", "start", "end", "parent_id", "args")
    ),
    "repro.workload.profile:JobProfile": (
        "dataclass",
        (
            "app_name", "kernel_name", "nodes", "walltime_seconds", "memory_bytes_per_node",
            "user_rates", "system_rates", "mflops_per_node", "compute_fraction",
            "comm_fraction", "io_fraction",
        ),
    ),
    "repro.workload.traces:Submission": (
        "dataclass", ("time", "user", "app_name", "nodes", "profile")
    ),
}
_SAMPLE_FIELDS = ("time", "node_ids", "matrix", "missing")
_RESULT_FIELDS = (
    "shard", "samples", "records", "utilization_probes", "submissions",
    "demand_levels", "events_processed", "spans", "faults",
)
#: ``ShardResult`` up to version 3, with the ``sim.truncated`` notices
#: a worker's live telemetry service collected.
_RESULT_V3 = ("dataclass", _RESULT_FIELDS[:-1] + ("truncations", "faults"))

#: Every ``repro`` class a checkpoint of a one-day traced, faulted shard
#: pickles, with its kind and field names, per ``CHECKPOINT_VERSION``.
#: A record that changes shape needs a new version and a new entry
#: here; an old version's entry never changes.  Version 3 made
#: ``SystemSample`` a named tuple, which cannot unpickle the dataclass
#: a version-2 file holds.  Version 4 dropped ``ShardResult.truncations``
#: (shard workers run with no telemetry) and keeps the result as
#: checksummed bytes inside the envelope.
CHECKPOINT_FORMATS = {
    2: {
        **_SHARD_RECORDS,
        "repro.hpm.collector:SystemSample": ("dataclass", _SAMPLE_FIELDS),
        "repro.parallel.worker:ShardResult": _RESULT_V3,
    },
    3: {
        **_SHARD_RECORDS,
        "repro.hpm.collector:SystemSample": ("namedtuple", _SAMPLE_FIELDS),
        "repro.parallel.worker:ShardResult": _RESULT_V3,
    },
    4: {
        **_SHARD_RECORDS,
        "repro.hpm.collector:SystemSample": ("namedtuple", _SAMPLE_FIELDS),
        "repro.parallel.worker:ShardResult": ("dataclass", _RESULT_FIELDS),
    },
}

_STRING_OPS = {"SHORT_BINUNICODE", "BINUNICODE", "BINUNICODE8", "UNICODE"}


def pickled_classes(data: bytes) -> set[tuple[str, str]]:
    """Every ``(module, qualname)`` a pickle names, read with pickletools.

    Protocol 4 and later name a class with ``STACK_GLOBAL`` over the two
    strings pushed just before it, each a literal or a memo get; a
    ``MEMOIZE`` follows the push of the object it stores."""
    pushed: list = []
    memo: list = []
    found: set[tuple[str, str]] = set()
    last = None
    for op, arg, _ in pickletools.genops(data):
        if op.name in _STRING_OPS:
            pushed.append(arg)
            last = arg
            continue
        if op.name == "MEMOIZE":
            memo.append(last)
        elif op.name in ("BINGET", "LONG_BINGET"):
            pushed.append(memo[arg])
        elif op.name == "STACK_GLOBAL":
            found.add((pushed[-2], pushed[-1]))
        elif op.name == "GLOBAL":
            module, name = arg.split(" ", 1)
            found.add((module, name))
        last = None
    return found


def record_shape(module: str, qualname: str) -> tuple[str, tuple[str, ...]]:
    """A pickled class's kind and field names."""
    cls = importlib.import_module(module)
    for part in qualname.split("."):
        cls = getattr(cls, part)
    if dataclasses.is_dataclass(cls):
        return "dataclass", tuple(f.name for f in dataclasses.fields(cls))
    if issubclass(cls, tuple) and hasattr(cls, "_fields"):
        return "namedtuple", cls._fields
    return type(cls).__name__, ()


class TestFormat:
    @pytest.fixture(scope="class")
    def checkpoint_bytes(self, tmp_path_factory) -> bytes:
        config = StudyConfig(
            seed=7, n_days=1, n_nodes=8, n_users=3, fault_profile=PROFILES["pathological"]
        )
        result = run_shard(config, Shard(index=0, day_start=0, day_end=1), 1, tracing=True)
        assert result.samples and result.records and result.spans and result.faults.events
        path = save_shard_result(str(tmp_path_factory.mktemp("ckpt")), "fp", result)
        return Path(path).read_bytes()

    def test_pickled_records_match_the_pinned_format(self, checkpoint_bytes):
        """A pickled record that changes shape without a version bump
        fails here.  The envelope itself names no class: the records are
        all inside the checksummed result bytes."""
        assert pickled_classes(checkpoint_bytes) == set()
        payload = pickle.loads(checkpoint_bytes)["result"]
        shapes = {
            f"{module}:{name}": record_shape(module, name)
            for module, name in pickled_classes(payload)
            if module.partition(".")[0] == "repro"
        }
        assert shapes == CHECKPOINT_FORMATS[CHECKPOINT_VERSION]

    @staticmethod
    def assert_old_file_is_a_miss(tmp_path, version: int) -> None:
        """A file an older build wrote (the result pickled inside the
        envelope, no checksum) is recomputed, whichever fingerprint it
        carries."""
        assert CHECKPOINT_VERSION == 4
        old_fingerprint = sha256_fingerprint(f"v{version}|shards=4|{CONFIG!r}")
        for fingerprint in (old_fingerprint, config_fingerprint(CONFIG, 4)):
            old = {
                "version": version,
                "fingerprint": fingerprint,
                "shard_index": 0,
                "result": tiny_result(),
            }
            with open(shard_path(str(tmp_path), 0), "wb") as fh:
                pickle.dump(old, fh, protocol=pickle.HIGHEST_PROTOCOL)
            assert load_shard_result(str(tmp_path), fingerprint, 0) is None

    def test_version_2_file_is_a_miss(self, tmp_path):
        self.assert_old_file_is_a_miss(tmp_path, 2)

    def test_version_3_file_is_a_miss(self, tmp_path):
        self.assert_old_file_is_a_miss(tmp_path, 3)


class TestChecksum:
    CONFIG = StudyConfig(
        seed=7, n_days=2, n_nodes=8, n_users=3, fault_profile=PROFILES["pathological"]
    )

    def test_a_flipped_counter_byte_is_a_miss_and_resume_recomputes(self, tmp_path, monkeypatch):
        """One flipped bit in a sample matrix still unpickles, to a
        counter that was never measured; the checksum turns it into a
        miss, and a resume recomputes that shard alone, byte-identical
        to the uninterrupted run."""
        ckpt = str(tmp_path)
        reference = dataset_to_json(run_study(self.CONFIG, shard_days=1, checkpoint_dir=ckpt))
        fingerprint = config_fingerprint(self.CONFIG, 2)
        saved = load_shard_result(ckpt, fingerprint, 1)
        matrix = saved.samples[-1].matrix
        path = Path(shard_path(ckpt, 1))
        data = bytearray(path.read_bytes())
        at = data.find(matrix.tobytes())
        assert at > 0
        data[at + matrix.nbytes // 2] ^= 0x01
        path.write_bytes(bytes(data))

        flipped = pickle.loads(pickle.loads(bytes(data))["result"])
        assert isinstance(flipped, ShardResult)
        assert not np.array_equal(flipped.samples[-1].matrix, matrix)
        assert load_shard_result(ckpt, fingerprint, 1) is None
        assert load_shard_result(ckpt, fingerprint, 0) is not None

        import repro.parallel.worker as worker

        ran = []
        original = worker.run_shard

        def counting(config, shard, *args, **kwargs):
            ran.append(shard.index)
            return original(config, shard, *args, **kwargs)

        monkeypatch.setattr(worker, "run_shard", counting)
        resumed = run_study(self.CONFIG, shard_days=1, checkpoint_dir=ckpt, resume=True)
        assert ran == [1]
        assert dataset_to_json(resumed) == reference
        assert load_shard_result(ckpt, fingerprint, 1) is not None
