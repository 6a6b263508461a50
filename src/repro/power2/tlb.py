"""TLB simulator: 512 entries over 4 kB pages.

Same role as :mod:`repro.power2.dcache` but for address translation; it
derives the analytic TLB miss ratios (Table 4: 0.1% workload, 0.2%
sequential, 0.06% NPB BT) and supports the §5 observation that "we might
expect high TLB miss rates from programs accessing data with large
memory strides".  As in the cache, each set is a Python list of the
pages it translates, least recently used first; a numpy walk is its
differential oracle (``tests/power2/cache_reference.py``).
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
    """Set-associative, LRU translation lookaside buffer.

    Each set is a list of the page numbers it translates, least recently
    used first, never longer than the associativity.
    """

    def __init__(self, geometry: TLBGeometry | None = None) -> None:
        self.geometry = geometry or TLBGeometry()
        g = self.geometry
        self._page_shift = g.page_bytes.bit_length() - 1
        self._n_sets = g.n_sets
        self._assoc = g.associativity
        self._sets: list[list[int]] = [[] for _ in range(self._n_sets)]
        self.stats = TLBStats()

    def reset_stats(self) -> None:
        self.stats = TLBStats()

    def flush(self) -> None:
        """Invalidate all translations (context switch)."""
        self._sets = [[] for _ in range(self._n_sets)]

    def access(self, address: int) -> bool:
        """Translate one byte address; returns ``True`` on a TLB hit."""
        page = int(address) >> self._page_shift
        if page < 0:
            raise ValueError(f"byte address must be non-negative, got {address}")
        ways = self._sets[page % self._n_sets]
        stats = self.stats
        stats.accesses += 1
        if page in ways:
            stats.hits += 1
            if ways[-1] != page:
                ways.remove(page)
                ways.append(page)
            return True
        stats.misses += 1
        if len(ways) == self._assoc:
            del ways[0]
        ways.append(page)
        return False

    def run(self, addresses: np.ndarray) -> TLBStats:
        access = self.access
        for a in np.asarray(addresses, dtype=np.int64).tolist():
            access(a)
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
