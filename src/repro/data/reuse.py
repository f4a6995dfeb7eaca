"""Reuse-distance (Mattson stack-distance) analysis of embedding traces.

The classic memory-systems tool the paper's trace release enables: for an
LRU cache, a reference hits iff its *stack distance* — the number of
distinct IDs touched since the previous reference to the same ID — is
below the cache capacity. One pass over a trace therefore yields the hit
ratio of *every* cache size simultaneously (the miss-ratio curve), which
is how capacity decisions for embedding caches / DRAM tiers should be
made rather than replaying per size.

One vectorized O(N log² N) pass computes the distances at every trace
length (a stable argsort, then bottom-up merge counting with one
``np.searchsorted`` per doubling pass; see :func:`stack_distances`), which
is what makes reuse profiling practical on million-lookup traces. Its
executable spec, a per-lookup Fenwick-tree walk, is test-only
(``tests/oracles/stack_distances.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def stack_distances(ids: np.ndarray) -> np.ndarray:
    """Per-reference LRU stack distances; first touches get -1.

    ``distances[k]`` is the number of *distinct* IDs referenced strictly
    between reference ``k`` and the previous reference to the same ID.

    With ``sprev[k]`` the previous occurrence of ``ids[k]`` (-1 for first
    touches), every j <= sprev[k] trivially has ``sprev[j] < j <= sprev[k]``,
    and the j in (sprev[k], k) with ``sprev[j] <= sprev[k]`` are exactly the
    first in-window occurrences of the window's distinct IDs, so::

        distances[k] = #{j < k : sprev[j] <= sprev[k]} - sprev[k] - 1

    The dominance count is a classic merge-count: each doubling pass
    counts, for every element of a right half-block, the left-half
    elements <= it. Adding ``pair_index * span`` (span exceeding the value
    range) to the keys makes the concatenation of all sorted left halves
    globally sorted, so every pass is one ``np.searchsorted`` call.
    """
    ids = np.asarray(ids).reshape(-1)
    if ids.size == 0:
        raise ValueError("trace must contain at least one lookup")
    n = int(ids.size)
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    sprev = np.full(n, -1, dtype=np.int64)
    same = sorted_ids[1:] == sorted_ids[:-1]
    sprev[order[1:][same]] = order[:-1][same]

    vals = sprev + 1  # shift into [0, n); ties only among first touches
    pad_value = n + 1  # sorts after (and never counts <=) every real value
    span = n + 3  # > pad_value, so block keys never bleed across pairs
    m = 1 << max(1, (n - 1).bit_length())
    arr = np.full(m, pad_value, dtype=np.int64)
    arr[:n] = vals
    pos = np.arange(m, dtype=np.int64)
    counts = np.zeros(m, dtype=np.int64)
    slots = np.arange(m, dtype=np.int64)
    width = 1
    while width < m:
        pair = slots // (2 * width)
        left_sel = (slots // width) % 2 == 0
        left_keys = arr[left_sel] + pair[left_sel] * span
        right_pair = pair[~left_sel]
        right_keys = arr[~left_sel] + right_pair * span
        # Global searchsorted = per-pair rank + width per earlier pair.
        ranks = np.searchsorted(left_keys, right_keys, side="right")
        counts[pos[~left_sel]] += ranks - right_pair * width
        merge_key = pair * span + arr
        merged = np.argsort(merge_key, kind="stable")
        arr = arr[merged]
        pos = pos[merged]
        width *= 2
    rank_before = counts[:n]
    return np.where(sprev >= 0, rank_before - sprev - 1, -1)


@dataclass(frozen=True)
class ReuseProfile:
    """Reuse statistics of one trace."""

    lookups: int
    compulsory: int
    distance_histogram: np.ndarray  # counts per stack distance

    @property
    def compulsory_fraction(self) -> float:
        """First-touch (unique-ID) fraction — Figure 14's y-axis."""
        return self.compulsory / self.lookups

    def hit_ratio(self, capacity_rows: int) -> float:
        """LRU hit ratio at a given cache capacity (in rows)."""
        if capacity_rows < 0:
            raise ValueError("capacity must be non-negative")
        if capacity_rows == 0:
            return 0.0
        hits = int(self.distance_histogram[: capacity_rows].sum())
        return hits / self.lookups

    def working_set_size(self, target_hit_ratio: float) -> int | None:
        """Smallest capacity achieving ``target_hit_ratio`` (None if never).

        The achievable ceiling is ``1 - compulsory_fraction``.
        """
        if not 0.0 < target_hit_ratio <= 1.0:
            raise ValueError("target_hit_ratio must be in (0, 1]")
        cumulative = np.cumsum(self.distance_histogram) / self.lookups
        indices = np.nonzero(cumulative >= target_hit_ratio)[0]
        if indices.size == 0:
            return None
        return int(indices[0]) + 1


def reuse_profile(ids: np.ndarray) -> ReuseProfile:
    """Build the reuse profile of a trace in one pass."""
    distances = stack_distances(ids)
    compulsory = int((distances < 0).sum())
    finite = distances[distances >= 0]
    max_distance = int(finite.max()) if finite.size else 0
    histogram = np.bincount(finite, minlength=max_distance + 1)
    return ReuseProfile(
        lookups=int(distances.size),
        compulsory=compulsory,
        distance_histogram=histogram,
    )
