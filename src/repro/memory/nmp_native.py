"""Self-contained native kernel for near-memory replay.

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
:func:`repro.hw._native.load_native` (same build cache, same
``REPRO_DISABLE_NATIVE=1`` off-switch); without a compiler
:class:`~repro.memory.near_memory.NearMemorySystem` runs its per-access
reference loop, the spec the equivalence suite
(``tests/test_nmp_equivalence.py``) proves this kernel bit-identical to.
"""

from __future__ import annotations

import ctypes

import numpy as np

from ..hw._native import load_native

__all__ = ["NmpNativeKernel", "load_nmp_kernel", "nmp_native_available"]

# Mirror of the reference OrderedDict hot cache in repro.memory.near_memory:
# slots 0..occ-1 of a DIMM's tag row hold resident row ids in LRU→MRU order
# (slot 0 is the next victim), exactly the reference dict's iteration order.
#
# Internally each DIMM's cache is a chained hash table over row ids plus a
# doubly-linked LRU list — O(1) per lookup, like the OrderedDict it mirrors
# (a linear tag scan would be O(capacity) per access and forfeit the whole
# native speedup). The SoA tag matrix is only the *interchange format*: the
# kernel rebuilds its structures from it on entry and serializes the LRU
# order back on exit, so Python-side state stays engine-agnostic.
_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;
typedef uint64_t u64;
typedef uint8_t u8;

/* Row ids are validated non-negative, so when num_ranks / ranks_per_dimm
 * are powers of two (the default geometry) the div/mod placement becomes
 * mask/shift. pow2_shift returns the shift, or -1 when not a power of 2. */
static int pow2_shift(i64 value) {
    if (value <= 0 || (value & (value - 1)) != 0)
        return -1;
    int shift = 0;
    while ((value >>= 1) != 0)
        shift++;
    return shift;
}

#define PLACE_ROW(row, rank, dimm)                                        \
    do {                                                                  \
        (rank) = rank_shift >= 0 ? ((row) & (num_ranks - 1))              \
                                 : ((row) % num_ranks);                   \
        (dimm) = rpd_shift >= 0 ? ((rank) >> rpd_shift)                   \
                                : ((rank) / ranks_per_dimm);              \
    } while (0)

int repro_nmp_hot_flags(const i64 *rows, i64 n_rows,
                        i64 *tags, i64 *occ,
                        i64 num_dimms, i64 capacity,
                        i64 ranks_per_dimm, i64 num_ranks,
                        u8 *hits_out) {
    if (capacity == 0) {
        memset(hits_out, 0, (size_t)n_rows);
        return 0;
    }
    i64 hsize = 8;
    while (hsize < 4 * capacity)
        hsize <<= 1;
    i64 hmask = hsize - 1;

    /* Per-DIMM pools: node keys + LRU links + hash chains, one block. */
    i64 nodes = num_dimms * capacity;
    i64 *mem = (i64 *)malloc((size_t)(4 * nodes + num_dimms * (hsize + 3)) *
                             sizeof(i64));
    if (mem == NULL)
        return 1; /* nothing mutated; the caller raises */
    i64 *key = mem;
    i64 *prv = key + nodes;
    i64 *nxt = prv + nodes;
    i64 *hnext = nxt + nodes;
    i64 *bucket = hnext + nodes;
    i64 *head = bucket + num_dimms * hsize;
    i64 *tail = head + num_dimms;
    i64 *count = tail + num_dimms;
    memset(bucket, -1, (size_t)(num_dimms * hsize) * sizeof(i64));

    /* Rebuild each DIMM's list+table from the tag row (LRU -> MRU). */
    for (i64 d = 0; d < num_dimms; ++d) {
        head[d] = tail[d] = -1;
        count[d] = occ[d];
        for (i64 k = 0; k < occ[d]; ++k) {
            i64 node = d * capacity + k;
            i64 row = tags[node];
            key[node] = row;
            prv[node] = tail[d];
            nxt[node] = -1;
            if (tail[d] >= 0)
                nxt[tail[d]] = node;
            else
                head[d] = node;
            tail[d] = node;
            i64 *slot = bucket + d * hsize +
                        (i64)(((u64)row * 0x9E3779B97F4A7C15ULL >> 32) & (u64)hmask);
            hnext[node] = *slot;
            *slot = node;
        }
    }

    int rank_shift = pow2_shift(num_ranks);
    int rpd_shift = pow2_shift(ranks_per_dimm);
    for (i64 i = 0; i < n_rows; ++i) {
        i64 row = rows[i];
        i64 rank, dimm;
        PLACE_ROW(row, rank, dimm);
        (void)rank;
        i64 *slot = bucket + dimm * hsize +
                    (i64)(((u64)row * 0x9E3779B97F4A7C15ULL >> 32) & (u64)hmask);
        i64 node = *slot;
        while (node >= 0 && key[node] != row)
            node = hnext[node];
        if (node >= 0) {
            /* Hit: move the node to the MRU end of the list. */
            hits_out[i] = 1;
            if (tail[dimm] != node) {
                if (prv[node] >= 0)
                    nxt[prv[node]] = nxt[node];
                else
                    head[dimm] = nxt[node];
                prv[nxt[node]] = prv[node];
                prv[node] = tail[dimm];
                nxt[node] = -1;
                nxt[tail[dimm]] = node;
                tail[dimm] = node;
            }
            continue;
        }
        hits_out[i] = 0;
        if (count[dimm] >= capacity) {
            /* Evict the LRU node: unchain its old key, reuse the node. */
            node = head[dimm];
            i64 *chain = bucket + dimm * hsize +
                         (i64)(((u64)key[node] * 0x9E3779B97F4A7C15ULL >> 32) &
                               (u64)hmask);
            while (*chain != node)
                chain = hnext + *chain;
            *chain = hnext[node];
            head[dimm] = nxt[node];
            if (head[dimm] >= 0)
                prv[head[dimm]] = -1;
            else
                tail[dimm] = -1;
        } else {
            node = dimm * capacity + count[dimm];
            count[dimm] += 1;
        }
        key[node] = row;
        prv[node] = tail[dimm];
        nxt[node] = -1;
        if (tail[dimm] >= 0)
            nxt[tail[dimm]] = node;
        else
            head[dimm] = node;
        tail[dimm] = node;
        hnext[node] = *slot;
        *slot = node;
    }

    /* Serialize back: tag slots 0..count-1 in LRU -> MRU order. */
    for (i64 d = 0; d < num_dimms; ++d) {
        i64 k = 0;
        for (i64 node = head[d]; node >= 0; node = nxt[node])
            tags[d * capacity + k++] = key[node];
        occ[d] = count[d];
    }
    free(mem);
    return 0;
}

/* Full replay: hot-flags pass (above) plus the pool/rank accounting the
 * vectorized Python engine otherwise does with bincount — one extra O(n)
 * walk, same integer-ns arithmetic, so observables stay bit-identical. */
int repro_nmp_replay(const i64 *rows, i64 n_rows,
                     const i64 *lengths, i64 n_pools,
                     i64 *tags, i64 *occ,
                     i64 num_dimms, i64 capacity,
                     i64 ranks_per_dimm, i64 num_ranks,
                     i64 gather_ns, i64 hit_ns, i64 pool_overhead_ns,
                     u8 *hits_out,
                     i64 *pool_latency_out,
                     i64 *rank_busy_out,
                     i64 *dimm_hits_out,
                     i64 *dimm_misses_out) {
    i64 *rank_load = (i64 *)malloc((size_t)num_ranks * sizeof(i64));
    if (rank_load == NULL)
        return 1;
    int status = repro_nmp_hot_flags(rows, n_rows, tags, occ, num_dimms,
                                     capacity, ranks_per_dimm, num_ranks,
                                     hits_out);
    if (status != 0) {
        free(rank_load);
        return status;
    }
    int rank_shift = pow2_shift(num_ranks);
    int rpd_shift = pow2_shift(ranks_per_dimm);
    i64 cursor = 0;
    for (i64 p = 0; p < n_pools; ++p) {
        memset(rank_load, 0, (size_t)num_ranks * sizeof(i64));
        i64 critical = 0;
        for (i64 j = 0; j < lengths[p]; ++j, ++cursor) {
            i64 rank, dimm;
            PLACE_ROW(rows[cursor], rank, dimm);
            i64 cost;
            if (hits_out[cursor]) {
                cost = hit_ns;
                dimm_hits_out[dimm] += 1;
            } else {
                cost = gather_ns;
                dimm_misses_out[dimm] += 1;
            }
            i64 load = rank_load[rank] + cost;
            rank_load[rank] = load;
            rank_busy_out[rank] += cost;
            if (load > critical)
                critical = load;
        }
        pool_latency_out[p] = critical + pool_overhead_ns;
    }
    free(rank_load);
    return 0;
}
"""

_I64P = ctypes.POINTER(ctypes.c_int64)
_U8P = ctypes.POINTER(ctypes.c_uint8)


class NmpNativeKernel:
    """ctypes facade over the compiled hot-row-cache kernel."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._replay = lib.repro_nmp_replay
        self._replay.restype = ctypes.c_int
        self._replay.argtypes = [
            _I64P,
            ctypes.c_int64,
            _I64P,
            ctypes.c_int64,
            _I64P,
            _I64P,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_int64,
            _U8P,
            _I64P,
            _I64P,
            _I64P,
            _I64P,
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
    return load_native("repro_nmp", _C_SOURCE, NmpNativeKernel)


def nmp_native_available() -> bool:
    """True when the compiled NMP kernel is usable in this process."""
    return load_nmp_kernel() is not None
