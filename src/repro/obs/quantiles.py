"""The one quantile implementation every layer shares.

Before :mod:`repro.obs` existed, ``serving/metrics.py`` and
``analysis/distributions.py`` each called ``np.percentile`` with their own
conventions (percent points vs fractions). Tail statistics quoted across
figures must come from one definition, so both now route through
:func:`quantile` — as do the streaming histograms in
:mod:`repro.obs.metrics`.

Convention: quantiles are *fractions* in ``[0, 1]`` (``0.99``, not ``99``)
and interpolation is numpy's default linear rule. The implementation
multiplies by exactly ``100.0`` and defers to ``np.percentile``, so
results are bit-identical to the historical call sites (the goldens prove
it).
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_samples", "quantile", "quantiles"]


def as_samples(samples) -> np.ndarray:
    """``samples`` as a contiguous float64 array.

    An array converts directly, with no round trip through a Python
    list; any other iterable goes through ``list``. The result is
    contiguous either way, so ``mean()`` sums an array and a list of the
    same values in the same order. A 0-d array, like a scalar, raises
    ``TypeError``.
    """
    if isinstance(samples, np.ndarray) and samples.ndim > 0:
        return np.ascontiguousarray(samples, dtype=np.float64)
    return np.asarray(list(samples), dtype=np.float64)


def _as_array(samples) -> np.ndarray:
    arr = np.asarray(
        samples if isinstance(samples, np.ndarray) else list(samples),
        dtype=np.float64,
    )
    if arr.size == 0:
        raise ValueError("cannot take a quantile of an empty sample")
    return arr


def quantile(samples, q: float) -> float:
    """The ``q``-quantile (``q`` in ``[0, 1]``) of a non-empty sample."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    return float(np.percentile(_as_array(samples), 100.0 * q))


def quantiles(samples, qs) -> tuple[float, ...]:
    """Several quantiles of one sample in a single pass."""
    qs = tuple(qs)
    for q in qs:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
    arr = _as_array(samples)
    return tuple(
        float(v) for v in np.percentile(arr, [100.0 * q for q in qs])
    )
