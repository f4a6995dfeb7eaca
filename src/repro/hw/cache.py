"""Set-associative cache model with LRU replacement.

Used by :mod:`repro.hw.hierarchy` to build the inclusive (Haswell,
Broadwell) and non-inclusive/exclusive (Skylake) L2/L3 hierarchies whose
behaviour under irregular embedding-table accesses drives the paper's
co-location findings (Sections V-VI).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field


@dataclass
class CacheStats:
    """Access counters for one cache level."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def miss_ratio(self) -> float:
        """Misses per access (0 when untouched)."""
        return self.misses / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """A single cache level: ``size_bytes`` split into LRU sets.

    Args:
        name: label for stats reporting ("L1", "L2", "L3").
        size_bytes: total capacity; must be a multiple of
            ``line_bytes * associativity``.
        associativity: ways per set.
        line_bytes: cache-line size (64 B on all Table-II machines).
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        associativity: int = 8,
        line_bytes: int = 64,
    ) -> None:
        if size_bytes <= 0 or associativity <= 0 or line_bytes <= 0:
            raise ValueError("cache parameters must be positive")
        num_lines = size_bytes // line_bytes
        if num_lines == 0 or num_lines % associativity != 0:
            raise ValueError(
                f"{name}: size {size_bytes} not divisible into "
                f"{associativity}-way sets of {line_bytes}B lines"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.line_bytes = line_bytes
        self.num_sets = num_lines // associativity
        # One LRU-ordered dict of line-tag -> None per set.
        self._sets: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self.stats = CacheStats()

    # -------------------------------------------------------------- helpers

    def _set_index(self, line: int) -> int:
        return line % self.num_sets

    def lines_spanned(self, address: int, size: int) -> range:
        """All line indices touched by ``size`` bytes at ``address``."""
        first = address // self.line_bytes
        last = (address + max(size, 1) - 1) // self.line_bytes
        return range(first, last + 1)

    # ------------------------------------------------------------ line ops

    def probe(self, line: int) -> bool:
        """Check presence without updating LRU or stats."""
        return line in self._sets[self._set_index(line)]

    def touch(self, line: int) -> bool:
        """Look up a line, updating LRU order and hit/miss stats.

        Returns True on hit. Does *not* allocate on miss — the hierarchy
        decides where the line is filled.
        """
        cache_set = self._sets[self._set_index(line)]
        if line in cache_set:
            cache_set.move_to_end(line)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def insert(self, line: int) -> int | None:
        """Allocate a line; returns the evicted victim line, if any."""
        cache_set = self._sets[self._set_index(line)]
        if line in cache_set:
            cache_set.move_to_end(line)
            return None
        victim: int | None = None
        if len(cache_set) >= self.associativity:
            victim, _ = cache_set.popitem(last=False)
            self.stats.evictions += 1
        cache_set[line] = None
        return victim

    def invalidate(self, line: int) -> bool:
        """Remove a line (back-invalidation); returns True if present."""
        cache_set = self._sets[self._set_index(line)]
        if line in cache_set:
            del cache_set[line]
            self.stats.invalidations += 1
            return True
        return False

    def resident_lines(self) -> int:
        """Number of lines currently cached."""
        return sum(len(s) for s in self._sets)

    def reset_stats(self) -> None:
        """Zero the counters (contents are kept)."""
        self.stats = CacheStats()
