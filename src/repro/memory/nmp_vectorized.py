"""Structure-of-arrays hot-row state for the native NMP replay engine.

The reference engine in :mod:`repro.memory.near_memory` walks a lookup
trace one row at a time: place the row on its rank, probe the owning
DIMM's LRU hot-row cache, charge the rank. Perfectly clear — and far too
slow for million-lookup traces. The vectorized engine hands the whole
trace to the native C kernel (:mod:`repro.memory.nmp_native`), which
does the placement, the hot-row cache and the pool/rank accounting in one
walk. The only state that outlives a replay is the hot-row cache, kept
here as flat tag matrices (:class:`VectorizedHotRowState`, mirroring
:class:`repro.hw.vectorized.VectorizedSetAssociativeCache`): slots
``0..occ-1`` of a row hold the DIMM's resident rows in LRU→MRU order.
Without a compiler the system keeps the reference engine's OrderedDicts
instead and never builds this state.
"""

from __future__ import annotations

import numpy as np

__all__ = ["VectorizedHotRowState"]


class VectorizedHotRowState:
    """Per-DIMM LRU hot-row caches as flat tag matrices.

    Attributes:
        tags: ``(num_dimms, capacity)`` int64; slots ``0..occ-1`` of a row
            hold that DIMM's resident row ids in LRU→MRU order (slot 0 is
            the next victim), mirroring the reference OrderedDict's
            iteration order.
        occupancy: ``(num_dimms,)`` int64 valid-slot counts.
    """

    def __init__(self, num_dimms: int, capacity_rows: int) -> None:
        if num_dimms <= 0:
            raise ValueError("num_dimms must be positive")
        if capacity_rows < 0:
            raise ValueError("capacity_rows must be non-negative")
        self.num_dimms = num_dimms
        self.capacity_rows = capacity_rows
        # max(capacity, 1) keeps zero-capacity states addressable; the
        # kernel never writes a tag when capacity_rows == 0.
        self.tags = np.zeros((num_dimms, max(capacity_rows, 1)), dtype=np.int64)
        self.occupancy = np.zeros(num_dimms, dtype=np.int64)

    def resident_rows(self) -> int:
        """Rows currently held across every DIMM's hot cache."""
        return int(self.occupancy.sum())

    def probe(self, dimm: int, row: int) -> bool:
        """Check presence without updating LRU order."""
        occupied = int(self.occupancy[dimm])
        return bool((self.tags[dimm, :occupied] == row).any())
