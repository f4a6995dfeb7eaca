"""ctypes bindings of the near-memory replay kernel (``repro/native/nmp.c``).

The one sequential piece of RecNMP-style replay
(:mod:`repro.memory.near_memory`) is the per-DIMM hot-row cache: exact
LRU over row ids, probed in trace order, where each access's hit/miss
outcome depends on every earlier access to the same DIMM. Row→rank
placement, per-rank occupancy and pool critical paths are plain integer
arithmetic on top of those hit/miss outcomes.

So the native kernel walks the lookup trace twice: a hot-flags pass that
maintains the per-DIMM LRU tag arrays **in place on the system's
structure-of-arrays numpy state** (:mod:`repro.memory.nmp_vectorized`)
and emits one hit/miss byte per lookup, then an accounting pass that
charges ranks and pools. It builds and loads through the shared
:func:`repro.native.load` (same build cache, same
``REPRO_DISABLE_NATIVE=1`` off-switch); without a compiler
:class:`~repro.memory.near_memory.NearMemorySystem` runs its per-access
reference loop, the spec the equivalence suite
(``tests/test_nmp_equivalence.py``) proves this kernel bit-identical to.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .. import native

__all__ = ["NmpNativeKernel", "load_nmp_kernel", "nmp_native_available"]

_I64P = ctypes.POINTER(ctypes.c_int64)
_U8P = ctypes.POINTER(ctypes.c_uint8)


class NmpNativeKernel:
    """ctypes facade over the compiled hot-row-cache kernel."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._replay = lib.repro_nmp_replay
        self._replay.restype = ctypes.c_int
        self._replay.argtypes = [
            _I64P, ctypes.c_int64,  # rows
            _I64P, ctypes.c_int64,  # pool lengths
            _I64P, _I64P,  # per-DIMM tags and occupancy, updated in place
            *[ctypes.c_int64] * 7,  # sizes and integer-ns costs
            _U8P, _I64P, _I64P, _I64P, _I64P,  # outputs
        ]

    def replay(
        self,
        rows: np.ndarray,
        lengths: np.ndarray,
        tags: np.ndarray,
        occupancy: np.ndarray,
        capacity: int,
        ranks_per_dimm: int,
        num_ranks: int,
        gather_ns: int,
        hit_ns: int,
        pool_overhead_ns: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Full replay in C: hot flags plus pool/rank accounting.

        Returns ``(pool_latencies_ns, per_rank_busy_ns, per_dimm_hits,
        per_dimm_misses)`` — the same integer observables the reference
        loop produces.
        """
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        lengths = np.ascontiguousarray(lengths, dtype=np.int64)
        num_dimms = int(occupancy.size)
        hits = np.zeros(rows.size, dtype=np.uint8)
        pool_latencies = np.zeros(lengths.size, dtype=np.int64)
        rank_busy = np.zeros(num_ranks, dtype=np.int64)
        dimm_hits = np.zeros(num_dimms, dtype=np.int64)
        dimm_misses = np.zeros(num_dimms, dtype=np.int64)
        status = self._replay(
            rows.ctypes.data_as(_I64P),
            rows.size,
            lengths.ctypes.data_as(_I64P),
            lengths.size,
            tags.ctypes.data_as(_I64P),
            occupancy.ctypes.data_as(_I64P),
            num_dimms,
            int(capacity),
            int(ranks_per_dimm),
            int(num_ranks),
            int(gather_ns),
            int(hit_ns),
            int(pool_overhead_ns),
            hits.ctypes.data_as(_U8P),
            pool_latencies.ctypes.data_as(_I64P),
            rank_busy.ctypes.data_as(_I64P),
            dimm_hits.ctypes.data_as(_I64P),
            dimm_misses.ctypes.data_as(_I64P),
        )
        if status != 0:
            raise MemoryError("NMP kernel scratch allocation failed")
        return pool_latencies, rank_busy, dimm_hits, dimm_misses


def load_nmp_kernel() -> NmpNativeKernel | None:
    """The NMP replay kernel; None when unavailable."""
    return native.load("repro_nmp", NmpNativeKernel)


def nmp_native_available() -> bool:
    """True when the compiled NMP kernel is usable in this process."""
    return load_nmp_kernel() is not None
