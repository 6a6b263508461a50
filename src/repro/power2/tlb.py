"""TLB simulator: 512 entries over 4 kB pages.

Same role as :mod:`repro.power2.dcache` but for address translation; it
derives the analytic TLB miss ratios (Table 4: 0.1% workload, 0.2%
sequential, 0.06% NPB BT) and supports the §5 observation that "we might
expect high TLB miss rates from programs accessing data with large
memory strides".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.power2.config import TLBGeometry


@dataclass
class TLBStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class TLB:
    """Set-associative, LRU translation lookaside buffer."""

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

    @staticmethod
    def sequential_miss_ratio(geometry: TLBGeometry, element_bytes: int = 8) -> float:
        """No-reuse sequential walk: one miss per page (§5: every 512
        real*8 elements for the 4 kB page)."""
        return element_bytes / geometry.page_bytes

    @staticmethod
    def strided_miss_ratio(
        geometry: TLBGeometry, stride_bytes: int, element_bytes: int = 8
    ) -> float:
        if stride_bytes <= 0:
            raise ValueError("stride must be positive")
        return min(1.0, max(stride_bytes, element_bytes) / geometry.page_bytes)
