"""Structure-of-arrays cache state for the cache-replay kernel.

The reference simulator (:mod:`repro.hw.cache`) keeps one ``OrderedDict``
per set and walks it per cache line — perfectly clear, and far too slow
for million-lookup traces. The kernel's hierarchy keeps each level as flat
numpy matrices instead:

* ``tags``   — ``(num_sets, associativity)`` int64; slots ``0..occ-1`` of
  a row hold the set's resident lines in LRU→MRU order (slot 0 is the
  next victim), mirroring the reference OrderedDict's iteration order.
* ``flags``  — same shape, uint8; marks lines filled by a prefetch and
  not yet demanded. A flag dies with its copy on eviction, which is what
  makes prefetch-hit accounting leak-free.
* ``occupancy`` — ``(num_sets,)`` int64 valid-slot counts.

Age counters are position-encoded (a line's age within its set is its
distance from the MRU slot); :meth:`VectorizedSetAssociativeCache.age_matrix`
materializes them for introspection.

Batches of line indices are replayed through this state by the native C
kernel (:mod:`repro.hw._native`), which implements exactly the reference
semantics — the equivalence suite asserts record-for-record equal stats.
Without a compiler the hierarchy keeps reference levels instead and
never builds this state.
"""

from __future__ import annotations

import numpy as np

from .cache import CacheStats

__all__ = ["VectorizedSetAssociativeCache", "expand_spans"]


class VectorizedSetAssociativeCache:
    """One cache level as numpy tag/flag/occupancy matrices.

    Geometry and validation match :class:`repro.hw.cache.SetAssociativeCache`;
    the contents are mutated in bulk by the native kernel rather than per
    access.
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
        self.tags = np.zeros((self.num_sets, associativity), dtype=np.int64)
        self.flags = np.zeros((self.num_sets, associativity), dtype=np.uint8)
        self.occupancy = np.zeros(self.num_sets, dtype=np.int64)
        # [hits, misses, evictions, invalidations] — incremented in place
        # by the native kernel.
        self._counters = np.zeros(4, dtype=np.int64)

    # ------------------------------------------------------------- geometry

    def lines_spanned(self, address: int, size: int) -> range:
        """All line indices touched by ``size`` bytes at ``address``."""
        first = address // self.line_bytes
        last = (address + max(size, 1) - 1) // self.line_bytes
        return range(first, last + 1)

    # ---------------------------------------------------------------- state

    @property
    def stats(self) -> CacheStats:
        """Access counters, as the reference :class:`CacheStats`."""
        hits, misses, evictions, invalidations = (int(c) for c in self._counters)
        return CacheStats(
            hits=hits,
            misses=misses,
            evictions=evictions,
            invalidations=invalidations,
        )

    def probe(self, line: int) -> bool:
        """Check presence without updating LRU or stats."""
        set_index = int(line % self.num_sets)
        occupied = int(self.occupancy[set_index])
        return bool((self.tags[set_index, :occupied] == line).any())

    def probe_lines(self, lines: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`probe` over an int64 line-index array."""
        lines = np.asarray(lines, dtype=np.int64).reshape(-1)
        set_indices = lines % self.num_sets
        way = np.arange(self.associativity, dtype=np.int64)[None, :]
        valid = way < self.occupancy[set_indices][:, None]
        return ((self.tags[set_indices] == lines[:, None]) & valid).any(axis=1)

    def resident_lines(self) -> int:
        """Number of lines currently cached."""
        return int(self.occupancy.sum())

    def age_matrix(self) -> np.ndarray:
        """Per-slot LRU ages (MRU slot = 0); -1 marks empty slots."""
        way = np.arange(self.associativity, dtype=np.int64)[None, :]
        ages = self.occupancy[:, None] - 1 - way
        return np.where(way < self.occupancy[:, None], ages, -1)

    def reset_stats(self) -> None:
        """Zero the counters (contents are kept)."""
        self._counters[:] = 0


# --------------------------------------------------------------- span utils


def expand_spans(
    addresses: np.ndarray, sizes: np.ndarray, line_bytes: int
) -> np.ndarray:
    """Expand (address, size) pairs into the flat line-index sequence.

    Vectorized equivalent of calling ``lines_spanned`` per access and
    concatenating the ranges in trace order.
    """
    addresses = np.asarray(addresses, dtype=np.int64).reshape(-1)
    sizes = np.asarray(sizes, dtype=np.int64).reshape(-1)
    first = addresses // line_bytes
    last = (addresses + np.maximum(sizes, 1) - 1) // line_bytes
    counts = last - first + 1
    if counts.size == 0:
        return np.empty(0, dtype=np.int64)
    total = int(counts.sum())
    starts = np.repeat(first, counts)
    bases = np.repeat(np.cumsum(counts) - counts, counts)
    return starts + (np.arange(total, dtype=np.int64) - bases)
