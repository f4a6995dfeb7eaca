"""Sparse-ID generators with controllable locality.

The memory behaviour of SLS is entirely determined by the distribution of
sparse IDs (Section VII / Figure 14): production traces span from nearly
random (every lookup unique, compulsory misses) to highly reusable (few
unique IDs, cache-friendly). Three generators cover that axis:

* :class:`UniformSparseGenerator` — every ID uniform over the table; the
  "random" baseline of Figure 14 (~100% unique for large tables).
* :class:`ZipfSparseGenerator` — power-law popularity, the classic skew of
  content IDs.
* :class:`TemporalReuseGenerator` — with probability ``reuse_probability``
  re-draws a recently-seen ID; directly dials the unique-ID fraction, which
  is the quantity Figure 14 reports.

Temporal reuse draws one ID at a time, so its loop runs in a small C
kernel (``repro/native/temporal_reuse.c``), built on the first
:meth:`TemporalReuseGenerator.ids` call and loaded through
:func:`repro.native.load`. It draws from the caller's
generator through its ``bitgen_t`` with numpy's own functions from
``libnpyrandom.a``, so its IDs and the generator state it leaves are
those of the reference loop bit for bit. Without a C compiler or
``libnpyrandom.a`` (or with ``REPRO_DISABLE_NATIVE=1``) the reference
loop runs instead.
"""

from __future__ import annotations

import abc
import ctypes
import math
import numbers

import numpy as np

from .. import native
from ..core.operators.sls import SparseBatch


def _integer(name: str, value) -> int:
    """``value`` as an int; a ValueError naming ``name`` if it is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _bind(lib: ctypes.CDLL):
    kernel = lib.repro_temporal_reuse
    kernel.restype = None
    kernel.argtypes = [
        ctypes.c_void_p,  # bitgen_t *
        ctypes.c_void_p,  # int64 buffer: carried history, then new IDs
        ctypes.c_int64,
        ctypes.c_int64,
        ctypes.c_uint64,
        ctypes.c_double,
        ctypes.c_int64,
    ]
    return kernel


def _reuse_kernel():
    """The temporal-reuse kernel, built on first use; None when unavailable."""
    return native.load("repro_temporal_reuse", _bind)


class SparseGenerator(abc.ABC):
    """Generates batches of sparse IDs for one embedding table."""

    def __init__(self, rows: int, lookups_per_sample: int) -> None:
        rows = _integer("rows", rows)
        lookups_per_sample = _integer("lookups_per_sample", lookups_per_sample)
        # rng.integers takes int64 bounds: an exclusive bound of 2**63 at most.
        if not 1 <= rows <= 2**63:
            raise ValueError(f"rows must be in [1, 2**63], got {rows}")
        if lookups_per_sample < 1:
            raise ValueError(
                f"lookups_per_sample must be positive, got {lookups_per_sample}"
            )
        self.rows = rows
        self.lookups_per_sample = lookups_per_sample

    @abc.abstractmethod
    def ids(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` sparse IDs in ``[0, rows)``."""

    def batch(self, batch_size: int, rng: np.random.Generator) -> SparseBatch:
        """Draw a :class:`SparseBatch` with the configured pooling factor."""
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        total = batch_size * self.lookups_per_sample
        all_ids = self.ids(total, rng)
        lengths = np.full(batch_size, self.lookups_per_sample, dtype=np.int64)
        return SparseBatch(ids=all_ids, lengths=lengths)


class UniformSparseGenerator(SparseGenerator):
    """IDs drawn uniformly at random — the compulsory-miss worst case."""

    def ids(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, self.rows, size=count, dtype=np.int64)


class ZipfSparseGenerator(SparseGenerator):
    """Power-law ID popularity: rank-``r`` ID has weight ``r**-alpha``.

    ``alpha`` near 0 approaches uniform; larger values concentrate lookups
    on a small hot set, creating the cacheable traces on the right side of
    Figure 14.
    """

    def __init__(self, rows: int, lookups_per_sample: int, alpha: float = 1.0) -> None:
        super().__init__(rows, lookups_per_sample)
        if not (math.isfinite(alpha) and alpha >= 0):
            raise ValueError(f"alpha must be finite and non-negative, got {alpha!r}")
        self.alpha = alpha
        # One array, built in place: ranks, weights, then the CDF. ``**=``
        # takes the same scalar fast paths as ``ranks**-alpha`` (a
        # reciprocal at alpha 1), so every value keeps its bits.
        cdf = np.arange(1, self.rows + 1, dtype=np.float64)
        cdf **= -alpha
        np.divide(cdf, cdf.sum(), out=cdf)
        np.cumsum(cdf, out=cdf)
        self._cdf = cdf

    def ids(self, count: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(count)
        return np.searchsorted(self._cdf, u).astype(np.int64).clip(0, self.rows - 1)


class TemporalReuseGenerator(SparseGenerator):
    """Mixes fresh uniform draws with re-draws from a recent-ID history.

    With probability ``reuse_probability`` an ID is sampled from the last
    ``history`` IDs generated; otherwise it is a fresh uniform draw. For long
    sequences the unique-ID fraction approaches ``1 - reuse_probability``,
    making this the natural knob for sweeping Figure 14's x-axis.

    The history carries over from one :meth:`ids` call to the next. Each
    call runs the C kernel when it loads, else the reference loop
    (:meth:`_ids_reference`), and :attr:`last_backend` says which.
    """

    def __init__(
        self,
        rows: int,
        lookups_per_sample: int,
        reuse_probability: float,
        history: int = 4096,
    ) -> None:
        super().__init__(rows, lookups_per_sample)
        if not 0.0 <= reuse_probability < 1.0:
            raise ValueError(
                f"reuse_probability must be in [0, 1), got {reuse_probability!r}"
            )
        history = _integer("history", history)
        if history < 1:
            raise ValueError(f"history must be positive, got {history}")
        self.reuse_probability = reuse_probability
        self.history = history
        self._recent: np.ndarray | None = None
        self._last_backend: str | None = None

    @property
    def last_backend(self) -> str | None:
        """Which loop the most recent :meth:`ids` call took.

        ``"native"`` (the C kernel) or ``"reference"`` (the Python loop);
        ``None`` before the first call.
        """
        return self._last_backend

    def ids(self, count: int, rng: np.random.Generator) -> np.ndarray:
        count = _integer("count", count)
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        kernel = _reuse_kernel()
        if kernel is None:
            self._last_backend = "reference"
            return self._ids_reference(count, rng)
        self._last_backend = "native"
        # One linear buffer: the carried history, then the new IDs, so
        # every history window is a contiguous slice of it.
        recent = self._recent
        len0 = 0 if recent is None else recent.size
        end = len0 + count
        buf = np.empty(end, dtype=np.int64)
        if recent is not None:
            buf[:len0] = recent
        with rng.bit_generator.lock:
            kernel(
                rng.bit_generator.ctypes.bit_generator.value,
                buf.ctypes.data,
                len0,
                count,
                self.rows - 1,
                self.reuse_probability,
                # ctypes truncates an int past int64 silently. The window
                # never outgrows the buffer, so this cap changes nothing.
                min(self.history, end),
            )
        self._recent = buf[-self.history :].copy()
        return buf[len0:]

    def _ids_reference(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """The reference loop: the kernel's spec, one draw per statement."""
        out = np.empty(count, dtype=np.int64)
        recent: list[int] = [] if self._recent is None else list(self._recent)
        for i in range(count):
            if recent and rng.random() < self.reuse_probability:
                out[i] = recent[int(rng.integers(0, len(recent)))]
            else:
                out[i] = int(rng.integers(0, self.rows))
            recent.append(int(out[i]))
            if len(recent) > self.history:
                recent.pop(0)
        self._recent = np.asarray(recent[-self.history :], dtype=np.int64)
        return out
