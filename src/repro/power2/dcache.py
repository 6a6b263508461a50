"""Set-associative cache simulator.

This is the *reference* model of the POWER2 data cache: 256 kB, 4-way,
256-byte lines, write-back with write-allocate, true LRU.  It is used to

* derive the analytic per-kernel miss ratios the fast campaign model
  consumes (see :mod:`repro.workload.kernels`);
* regenerate Table 4's "Sequential Access" column from first principles
  (a cache miss every 32 real*8 elements for a 256-byte line);
* model the write-back traffic behind the ``dcache_store`` counter
  ("occurs when the D-cache destination for incoming data currently
  contains data which has been modified", Table 1).

Access streams are NumPy arrays of byte addresses; the walk is a Python
loop over the stream, and each set is a Python list of the lines it
holds, least recently used first, so an access is a few list and set
operations (no campaign runs it: the campaign model is fully analytic).
A numpy walk over per-set tag, age and dirty rows is its differential
oracle (``tests/power2/cache_reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.power2.config import CacheGeometry


@dataclass
class CacheStats:
    """Counters accumulated by a cache walk."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    #: Lines fetched from memory (== misses for this blocking cache);
    #: feeds the ``dcache_reload`` counter.
    reloads: int = 0
    #: Dirty lines written back to memory on eviction; feeds the
    #: ``dcache_store`` counter.
    writebacks: int = 0

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def check(self) -> None:
        """Internal consistency: hits + misses == accesses, etc."""
        if self.hits + self.misses != self.accesses:
            raise AssertionError("hits + misses != accesses")
        if self.reloads != self.misses:
            raise AssertionError("blocking cache must reload once per miss")
        if self.writebacks > self.misses:
            raise AssertionError("cannot write back more lines than were evicted")


class SetAssociativeCache:
    """True-LRU, write-back, write-allocate set-associative cache.

    Each set is a list of the line numbers it holds, least recently used
    first, never longer than the associativity; the modified lines are
    one set of line numbers.
    """

    def __init__(self, geometry: CacheGeometry | None = None) -> None:
        self.geometry = geometry or CacheGeometry()
        g = self.geometry
        self._n_sets = g.n_sets
        self._assoc = g.associativity
        self._line_shift = int(g.line_bytes).bit_length() - 1
        if (1 << self._line_shift) != g.line_bytes:
            raise ValueError("line size must be a power of two")
        self._sets: list[list[int]] = [[] for _ in range(self._n_sets)]
        self._dirty: set[int] = set()
        self.stats = CacheStats()

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    def flush(self) -> int:
        """Invalidate everything; returns the number of dirty lines flushed."""
        dirty = len(self._dirty)
        self._sets = [[] for _ in range(self._n_sets)]
        self._dirty = set()
        return dirty

    def _line(self, address: int) -> int:
        line = int(address) >> self._line_shift
        if line < 0:
            raise ValueError(f"byte address must be non-negative, got {address}")
        return line

    def access(self, address: int, *, write: bool = False) -> bool:
        """One byte-address access; returns ``True`` on a hit."""
        line = self._line(address)
        ways = self._sets[line % self._n_sets]
        stats = self.stats
        stats.accesses += 1
        if line in ways:
            stats.hits += 1
            if ways[-1] != line:
                ways.remove(line)
                ways.append(line)
            if write:
                self._dirty.add(line)
            return True
        stats.misses += 1
        stats.reloads += 1
        if len(ways) == self._assoc:
            victim = ways.pop(0)
            if victim in self._dirty:
                self._dirty.remove(victim)
                stats.writebacks += 1
        ways.append(line)
        if write:
            self._dirty.add(line)
        return False

    def run(self, addresses: np.ndarray, writes: np.ndarray | None = None) -> CacheStats:
        """Walk an address stream; returns the stats accumulated so far."""
        addrs = np.asarray(addresses, dtype=np.int64)
        if writes is None:
            w = np.zeros(addrs.shape, dtype=bool)
        else:
            w = np.asarray(writes, dtype=bool)
            if w.shape != addrs.shape:
                raise ValueError("writes mask must match the address stream")
        access = self.access
        for a, is_w in zip(addrs.tolist(), w.tolist()):
            access(a, write=is_w)
        return self.stats

    # ------------------------------------------------------------------
    # Analytic helpers
    # ------------------------------------------------------------------
    def contains(self, address: int) -> bool:
        line = self._line(address)
        return line in self._sets[line % self._n_sets]

    @staticmethod
    def sequential_miss_ratio(geometry: CacheGeometry, element_bytes: int = 8) -> float:
        """Miss ratio of a no-reuse sequential walk.

        §5: "For real*8 data, we would experience a cache-miss every 32
        elements" for the 256-byte line — i.e. ``element_bytes /
        line_bytes``.
        """
        return element_bytes / geometry.line_bytes

    @staticmethod
    def strided_miss_ratio(
        geometry: CacheGeometry, stride_bytes: int, element_bytes: int = 8
    ) -> float:
        """Miss ratio of a no-reuse strided walk: one miss per line touched."""
        if stride_bytes <= 0:
            raise ValueError("stride must be positive")
        return min(1.0, max(stride_bytes, element_bytes) / geometry.line_bytes)
