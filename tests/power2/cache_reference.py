"""The numpy cache and TLB walks: the differential oracle for
:class:`~repro.power2.dcache.SetAssociativeCache` and
:class:`~repro.power2.tlb.TLB`.

Each set is a numpy row of way tags (``-1`` empty) and LRU age ranks
(0 = most recent), plus dirty bits for the cache; an access searches
the row, promotes the way it used and, on a miss, fills the first empty
way or evicts the oldest.  The simulators in ``repro`` keep a Python
list per set instead and share no code with these.
"""

from __future__ import annotations

import numpy as np

from repro.power2.config import CacheGeometry, TLBGeometry
from repro.power2.dcache import CacheStats
from repro.power2.tlb import TLBStats


class ReferenceCache:
    """True-LRU, write-back, write-allocate set-associative cache, one
    numpy row of tags, LRU ages and dirty bits per set."""

    def __init__(self, geometry: CacheGeometry | None = None) -> None:
        self.geometry = geometry or CacheGeometry()
        g = self.geometry
        self._n_sets = g.n_sets
        self._assoc = g.associativity
        self._line_shift = int(g.line_bytes).bit_length() - 1
        if (1 << self._line_shift) != g.line_bytes:
            raise ValueError("line size must be a power of two")
        # tags[set, way] = line tag (-1 empty); lru[set, way] = age rank
        # (0 = most recent); dirty[set, way] marks modified lines.
        self._tags = np.full((self._n_sets, self._assoc), -1, dtype=np.int64)
        self._lru = np.tile(np.arange(self._assoc), (self._n_sets, 1))
        self._dirty = np.zeros((self._n_sets, self._assoc), dtype=bool)
        self.stats = CacheStats()

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    def flush(self) -> int:
        """Invalidate everything; returns the number of dirty lines flushed."""
        dirty = int(self._dirty.sum())
        self._tags.fill(-1)
        self._dirty.fill(False)
        self._lru = np.tile(np.arange(self._assoc), (self._n_sets, 1))
        return dirty

    def _touch(self, set_idx: int, way: int) -> None:
        """Promote ``way`` to most-recently-used within its set."""
        age = self._lru[set_idx, way]
        older = self._lru[set_idx] < age
        self._lru[set_idx, older] += 1
        self._lru[set_idx, way] = 0

    def access(self, address: int, *, write: bool = False) -> bool:
        """One byte-address access; returns ``True`` on a hit."""
        line = int(address) >> self._line_shift
        set_idx = line % self._n_sets
        tag = line // self._n_sets
        ways = self._tags[set_idx]
        self.stats.accesses += 1
        hit_ways = np.nonzero(ways == tag)[0]
        if hit_ways.size:
            way = int(hit_ways[0])
            self.stats.hits += 1
            self._touch(set_idx, way)
            if write:
                self._dirty[set_idx, way] = True
            return True
        # Miss: evict the LRU way (or fill an empty one — empty ways were
        # initialized with distinct ages so argmax picks them first only
        # if they are oldest; prefer empties explicitly).
        self.stats.misses += 1
        self.stats.reloads += 1
        empty = np.nonzero(ways == -1)[0]
        if empty.size:
            way = int(empty[0])
        else:
            way = int(np.argmax(self._lru[set_idx]))
            if self._dirty[set_idx, way]:
                self.stats.writebacks += 1
        self._tags[set_idx, way] = tag
        self._dirty[set_idx, way] = bool(write)
        self._touch(set_idx, way)
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
        for a, is_w in zip(addrs.tolist(), w.tolist()):
            self.access(a, write=is_w)
        return self.stats

    def contains(self, address: int) -> bool:
        line = int(address) >> self._line_shift
        set_idx = line % self._n_sets
        tag = line // self._n_sets
        return bool((self._tags[set_idx] == tag).any())


class ReferenceTLB:
    """Set-associative, LRU TLB, one numpy row of tags and LRU ages per set."""

    def __init__(self, geometry: TLBGeometry | None = None) -> None:
        self.geometry = geometry or TLBGeometry()
        g = self.geometry
        self._page_shift = g.page_bytes.bit_length() - 1
        self._n_sets = g.n_sets
        self._assoc = g.associativity
        self._tags = np.full((self._n_sets, self._assoc), -1, dtype=np.int64)
        self._lru = np.tile(np.arange(self._assoc), (self._n_sets, 1))
        self.stats = TLBStats()

    def reset_stats(self) -> None:
        self.stats = TLBStats()

    def flush(self) -> None:
        """Invalidate all translations (context switch)."""
        self._tags.fill(-1)
        self._lru = np.tile(np.arange(self._assoc), (self._n_sets, 1))

    def access(self, address: int) -> bool:
        """Translate one byte address; returns ``True`` on a TLB hit."""
        page = int(address) >> self._page_shift
        set_idx = page % self._n_sets
        tag = page // self._n_sets
        self.stats.accesses += 1
        ways = self._tags[set_idx]
        hit_ways = np.nonzero(ways == tag)[0]
        if hit_ways.size:
            way = int(hit_ways[0])
            self.stats.hits += 1
        else:
            self.stats.misses += 1
            empty = np.nonzero(ways == -1)[0]
            way = int(empty[0]) if empty.size else int(np.argmax(self._lru[set_idx]))
            self._tags[set_idx, way] = tag
        age = self._lru[set_idx, way]
        self._lru[set_idx, self._lru[set_idx] < age] += 1
        self._lru[set_idx, way] = 0
        return bool(hit_ways.size)

    def run(self, addresses: np.ndarray) -> TLBStats:
        for a in np.asarray(addresses, dtype=np.int64).tolist():
            self.access(a)
        return self.stats
