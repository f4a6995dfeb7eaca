"""Latency-distribution analysis for the tail-latency study (Figure 11).

The paper's production data shows the same FC operator following a
*multi-modal* latency distribution on Broadwell (modes at ~40/58/75 us,
corresponding to low/medium/high co-location) but a single mode on Skylake.
This module provides percentile summaries and a histogram-based mode
counter used to verify that contrast on simulated distributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs.quantiles import as_samples, quantiles


@dataclass(frozen=True)
class LatencySummary:
    """Percentile summary of a latency sample."""

    count: int
    mean: float
    p5: float
    p50: float
    p95: float
    p99: float
    p999: float

    @property
    def tail_spread(self) -> float:
        """p99/p5 — the shaded-band width of Figure 11b/c."""
        return self.p99 / self.p5 if self.p5 > 0 else float("inf")


def summarize(samples) -> LatencySummary:
    """Percentile summary of a non-empty latency sample."""
    arr = as_samples(samples)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    if np.any(arr < 0):
        raise ValueError("latencies must be non-negative")
    p5, p50, p95, p99, p999 = quantiles(arr, (0.05, 0.50, 0.95, 0.99, 0.999))
    return LatencySummary(
        count=int(arr.size),
        mean=float(arr.mean()),
        p5=p5,
        p50=p50,
        p95=p95,
        p99=p99,
        p999=p999,
    )


def count_modes(
    samples,
    bins: int = 40,
    smoothing_passes: int = 2,
    prominence: float = 0.08,
) -> int:
    """Count the modes of a latency distribution.

    Histogram the samples, lightly smooth, and count local maxima whose
    height exceeds ``prominence`` of the global peak and that are separated
    by a genuine valley (drop below 60% of the smaller neighbouring peak).
    Deliberately simple and deterministic — it distinguishes "one mode" from
    "several clearly separated co-location modes", which is all Figure 11a
    needs.
    """
    arr = as_samples(samples)
    if arr.size < 10:
        raise ValueError("need at least 10 samples to count modes")
    hist, _ = np.histogram(arr, bins=bins)
    density = hist.astype(np.float64)
    kernel = np.array([0.25, 0.5, 0.25])
    for _ in range(smoothing_passes):
        density = np.convolve(density, kernel, mode="same")
    peak_floor = prominence * density.max()

    modes = 0
    last_peak_height = 0.0
    valley_since_peak = np.inf
    for i in range(len(density)):
        left = density[i - 1] if i > 0 else -1.0
        right = density[i + 1] if i < len(density) - 1 else -1.0
        valley_since_peak = min(valley_since_peak, density[i])
        if density[i] >= left and density[i] > right and density[i] >= peak_floor:
            separated = (
                modes == 0
                or valley_since_peak < 0.6 * min(last_peak_height, density[i])
            )
            if separated:
                modes += 1
                last_peak_height = density[i]
                valley_since_peak = np.inf
    return max(1, modes)
