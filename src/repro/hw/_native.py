"""ctypes bindings of the cache-replay kernel (``repro/native/replay.c``).

Exact LRU simulation with cross-level feedback (inclusive back-
invalidation, victim fills, prefetch pollution) is inherently sequential
per cache line, so cache replay's inner loop cannot be expressed as
whole-trace numpy array arithmetic without giving up bit-identical stats.
Instead the batch kernel is ~250 lines of C operating **in place on the
hierarchy's structure-of-arrays numpy state** (int64 tag matrices, uint8
prefetch-flag matrices, int64 occupancy vectors — see
:mod:`repro.hw.vectorized`). When it cannot load,
:class:`~repro.hw.hierarchy.CacheHierarchy` runs its reference loop
(built on :class:`~repro.hw.cache.SetAssociativeCache`), the executable
specification the equivalence suite drives this kernel against.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .. import native

__all__ = ["load_kernel", "native_available", "NativeKernel"]

_I64P = ctypes.POINTER(ctypes.c_int64)
_U8P = ctypes.POINTER(ctypes.c_uint8)

#: What both entry points take after their first two arguments: three
#: levels (tags, flags, occupancy, sets, ways, counters), then the
#: inclusion flag, the prefetch degree and the hierarchy counters.
_HIERARCHY_ARGS = (
    [_I64P, _U8P, _I64P, ctypes.c_int64, ctypes.c_int64, _I64P] * 3
    + [ctypes.c_int64, ctypes.c_int64, _I64P]
)


class NativeKernel:
    """ctypes facade over the compiled replay kernel."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._replay = lib.repro_replay
        self._replay.restype = None
        self._replay.argtypes = [_I64P, ctypes.c_int64] + _HIERARCHY_ARGS
        self._pressure = lib.repro_pressure
        self._pressure.restype = None
        self._pressure.argtypes = (
            [ctypes.c_int64, ctypes.c_int64] + _HIERARCHY_ARGS
        )

    @staticmethod
    def _hierarchy_args(levels, inclusive: bool, degree: int,
                        hier_counters: np.ndarray) -> list:
        args = []
        for level in levels:
            args += [
                level.tags.ctypes.data_as(_I64P),
                level.flags.ctypes.data_as(_U8P),
                level.occupancy.ctypes.data_as(_I64P),
                level.num_sets,
                level.associativity,
                level._counters.ctypes.data_as(_I64P),
            ]
        return args + [
            int(inclusive), int(degree), hier_counters.ctypes.data_as(_I64P)
        ]

    def replay(self, lines: np.ndarray, l1, l2, l3, inclusive: bool,
               degree: int, hier_counters: np.ndarray) -> None:
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        self._replay(
            lines.ctypes.data_as(_I64P),
            lines.size,
            *self._hierarchy_args((l1, l2, l3), inclusive, degree,
                                  hier_counters),
        )

    def pressure(self, evict_lines: int, seed_stride: int, l1, l2, l3,
                 inclusive: bool, degree: int,
                 hier_counters: np.ndarray) -> None:
        self._pressure(
            int(evict_lines),
            int(seed_stride),
            *self._hierarchy_args((l1, l2, l3), inclusive, degree,
                                  hier_counters),
        )


def load_kernel() -> NativeKernel | None:
    """The cache-replay kernel; None when unavailable."""
    return native.load("repro_replay", NativeKernel)


def native_available() -> bool:
    """True when the cache-replay kernel is usable in this process."""
    return load_kernel() is not None
