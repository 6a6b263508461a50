"""Per-shard checkpoint files for crash-tolerant campaigns.

Each worker writes its finished :class:`~repro.parallel.worker.ShardResult`
to ``<dir>/shard-<index>.pkl`` the moment the shard completes, so a
campaign interrupted by a worker crash (or a whole-process kill) resumes
from the completed shards instead of recomputing them.  Because a shard
result is a pure function of ``(config, shard, n_shards)``, a resumed
campaign merges to output *byte-identical* to an uninterrupted run — the
property the resilience tests and the CI fault smoke assert.

Checkpoints are guarded by a fingerprint of the campaign definition
(config repr + shard count + format version): a stale file from a
different seed, day count, fault profile, or shard plan is ignored, not
trusted.  The envelope holds the result as pickled bytes next to their
sha256, so a flipped byte that would still unpickle (a counter in a
sample matrix, say) is a miss too.  Writes are atomic (temp file +
``os.replace``) so a worker killed mid-write can never leave a torn
checkpoint behind.
"""

from __future__ import annotations

import hashlib
import os
import pickle

from repro.core.study import StudyConfig
from repro.parallel.worker import ShardResult

#: Bump when the ShardResult layout changes incompatibly: old files are
#: then fingerprint-mismatched and recomputed instead of mis-read.
CHECKPOINT_VERSION = 4


def sha256_fingerprint(payload: str) -> str:
    """The repo-wide fingerprint scheme: sha256 over a canonical string.

    Shard checkpoints and sweep cells both key their caches with this —
    one hashing convention, so "same fingerprint" always means "same
    resolved experiment definition".
    """
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def config_fingerprint(config: StudyConfig, n_shards: int) -> str:
    """Identity of a campaign's shard decomposition.

    ``StudyConfig`` is a frozen dataclass of plain values, so its repr is
    a stable, complete description of the experiment (seed, days, nodes,
    fault profile, ...); ``n_shards`` pins the shard plan the results
    belong to.
    """
    return sha256_fingerprint(f"v{CHECKPOINT_VERSION}|shards={n_shards}|{config!r}")


def shard_path(checkpoint_dir: str, index: int) -> str:
    return os.path.join(checkpoint_dir, f"shard-{index:04d}.pkl")


def save_shard_result(
    checkpoint_dir: str, fingerprint: str, result: ShardResult
) -> str:
    """Atomically persist one finished shard; returns the file path."""
    os.makedirs(checkpoint_dir, exist_ok=True)
    path = shard_path(checkpoint_dir, result.shard.index)
    payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    envelope = {
        "version": CHECKPOINT_VERSION,
        "fingerprint": fingerprint,
        "shard_index": result.shard.index,
        "sha256": hashlib.sha256(payload).hexdigest(),
        "result": payload,
    }
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        pickle.dump(envelope, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)
    return path


def load_shard_result(
    checkpoint_dir: str, fingerprint: str, index: int
) -> ShardResult | None:
    """The checkpointed result for one shard, or None when absent/stale.

    Any defect — missing file, a pickle that fails to decode in any way
    (truncated, corrupted opcodes or protocol byte, bad lengths), version
    or fingerprint mismatch, wrong shard index, result bytes that do not
    match their checksum, no shard result inside — returns None: the
    caller recomputes the shard, which is always safe.
    """
    path = shard_path(checkpoint_dir, index)
    try:
        with open(path, "rb") as fh:
            envelope = pickle.load(fh)
        if not isinstance(envelope, dict):
            return None
        if envelope.get("version") != CHECKPOINT_VERSION:
            return None
        if envelope.get("fingerprint") != fingerprint:
            return None
        if envelope.get("shard_index") != index:
            return None
        payload = envelope.get("result")
        if hashlib.sha256(payload).hexdigest() != envelope.get("sha256"):
            return None
        result = pickle.loads(payload)
    except Exception:
        # Corrupt pickle bytes surface as nearly any exception type
        # (ValueError, UnicodeDecodeError, MemoryError, OverflowError,
        # TypeError, ...), and a payload that is not bytes fails the
        # hash with TypeError; every one of them means "recompute".
        return None
    return result if isinstance(result, ShardResult) else None
