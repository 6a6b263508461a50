"""Deterministic random-stream management.

Every stochastic component of the simulation (job arrivals, kernel mixes,
per-day demand, paging noise, ...) draws from its own named child stream
derived from a single campaign seed.  This gives two properties the study
harness relies on:

* **Reproducibility** — a campaign is fully determined by one integer seed.
* **Isolation** — adding draws to one component does not perturb any other
  component's stream, so calibration stays stable as the code evolves.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np


class RngStreams:
    """A tree of named, independent :class:`numpy.random.Generator` streams.

    >>> streams = RngStreams(seed=42)
    >>> arrivals = streams.get("pbs.arrivals")
    >>> arrivals is streams.get("pbs.arrivals")
    True
    >>> streams.get("workload.mix") is arrivals
    False
    """

    def __init__(self, seed: int = 0, *, spawn_key: tuple[int, ...] = ()) -> None:
        self.seed = int(seed)
        #: Key prefix every named child derives under.  ``()`` is the
        #: campaign root; shard trees use ``(_SHARD_TAG, shard_id)`` so
        #: their name-space cannot collide with the root's (child keys
        #: have different lengths).
        self.spawn_key = tuple(int(k) for k in spawn_key)
        for k in self.spawn_key:
            # SeedSequence rejects negative spawn keys with an opaque
            # numpy error; fail early with the actual offending value.
            if k < 0:
                raise ValueError(
                    f"spawn_key entries must be non-negative, got {k} in {self.spawn_key}"
                )
        self._root = np.random.SeedSequence(self.seed, spawn_key=self.spawn_key)
        self._streams: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The stream is derived from the campaign seed and a stable hash of
        the name, so the same (seed, name) pair always yields the same
        sequence regardless of creation order.
        """
        gen = self._streams.get(name)
        if gen is None:
            child = np.random.SeedSequence(
                entropy=self._root.entropy,
                spawn_key=(*self.spawn_key, _stable_hash(name)),
            )
            gen = np.random.default_rng(child)
            self._streams[name] = gen
        return gen

    def spawn(self, name: str, index: int) -> np.random.Generator:
        """A per-entity stream, e.g. one per job: ``spawn("job", job_id)``."""
        return self.get(f"{name}#{int(index)}")

    def names(self) -> list[str]:
        """Names of all streams created so far (for diagnostics)."""
        return sorted(self._streams)


#: Spawn-key tag separating shard stream trees from everything else.
_SHARD_TAG = 0x5348_4152_44  # "SHARD"

#: Spawn-key tag for fleet-member stream trees (:mod:`repro.fleet`).
_FLEET_TAG = 0x464C_4545_54  # "FLEET"


def spawn_stream(
    seed: int, shard_id: int, *, namespace: tuple[int, ...] = ()
) -> RngStreams:
    """An :class:`RngStreams` tree for one shard of a sharded campaign.

    Shard ``shard_id`` of campaign ``seed`` always receives the same
    stream tree — independent of how many shards exist, how many worker
    processes execute them, or in which order they are scheduled.  This
    is the determinism anchor of :mod:`repro.parallel`: a shard's random
    draws are a pure function of ``(seed, shard_id)``.

    The shard tree is disjoint from the campaign-root tree
    (``RngStreams(seed)``) and from every other shard's tree by
    construction: child spawn keys are ``(tag, shard_id, name_hash)``
    versus the root's ``(name_hash,)``.

    ``namespace`` prefixes the spawn key — fleet members pass
    :func:`member_key` so member *m*'s shard trees are disjoint from
    every other member's (and from single-machine campaigns) while
    remaining a pure function of ``(seed, member name, shard_id)``.
    """
    if shard_id < 0:
        raise ValueError(f"shard_id must be non-negative, got {shard_id}")
    return RngStreams(seed, spawn_key=(*namespace, _SHARD_TAG, int(shard_id)))


def choice_cdf(p) -> list[float]:
    """The cumulative table ``Generator.choice(a, p=p)`` searches.

    numpy builds it on every call: ``p`` as float64, ``cumsum``, divided
    by its last element.  A caller that draws from one fixed ``p`` many
    times builds it once and draws with :func:`choice_index`.
    """
    cdf = np.cumsum(np.asarray(p, dtype=np.float64))
    cdf /= cdf[-1]
    return cdf.tolist()


def choice_index(cdf: list[float], rng: np.random.Generator) -> int:
    """The index ``rng.choice(a, p=p)`` picks, given ``choice_cdf(p)``.

    It is numpy's own algorithm written out (one ``rng.random()`` and a
    right-side search of the table), so the pick and the generator state
    after it are exactly ``choice``'s, without its per-call argument
    handling.
    """
    return bisect_right(cdf, rng.random())


def member_key(name: str) -> tuple[int, int]:
    """The spawn-key namespace of fleet member ``name``.

    Keyed by the member's *name*, not its position in the fleet spec, so
    per-member random realizations (fault schedules, shard trees) are
    invariant to member ordering.
    """
    return (_FLEET_TAG, _stable_hash(name))


def _stable_hash(name: str) -> int:
    """A process-stable 63-bit hash (``hash()`` is salted per process)."""
    h = 1469598103934665603  # FNV-1a 64-bit offset basis
    for byte in name.encode("utf-8"):
        h ^= byte
        h = (h * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return h >> 1
