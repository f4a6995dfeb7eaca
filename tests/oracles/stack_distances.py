"""Executable spec of :func:`repro.data.reuse.stack_distances`.

:func:`stack_distances_fenwick` counts live markers on a Fenwick (binary
indexed) tree over trace positions, one Python step per lookup: the
textbook O(N log N) Mattson stack-distance walk. ``stack_distances``
computes the same integers with a vectorized argsort and merge-count
pass; ``tests/test_reuse_ranking.py`` compares the two on hypothesis
traces and on long uniform and skewed ones.

The walk is test-only: nothing in ``src/`` calls it.
"""

from __future__ import annotations

import numpy as np


class _Fenwick:
    """Prefix-sum tree over trace positions."""

    def __init__(self, size: int) -> None:
        self._tree = np.zeros(size + 1, dtype=np.int64)
        self._size = size

    def add(self, index: int, delta: int) -> None:
        i = index + 1
        while i <= self._size:
            self._tree[i] += delta
            i += i & (-i)

    def prefix_sum(self, index: int) -> int:
        """Sum of entries at positions [0, index]."""
        i = index + 1
        total = 0
        while i > 0:
            total += int(self._tree[i])
            i -= i & (-i)
        return total


def stack_distances_fenwick(ids: np.ndarray) -> np.ndarray:
    """Reference implementation: live-marker counting on a Fenwick tree."""
    n = int(ids.size)
    tree = _Fenwick(n)
    last_pos: dict[int, int] = {}
    out = np.empty(n, dtype=np.int64)
    for k in range(n):
        key = int(ids[k])
        prev = last_pos.get(key)
        if prev is None:
            out[k] = -1
        else:
            # Distinct IDs since prev = live markers in (prev, k).
            out[k] = tree.prefix_sum(k - 1) - tree.prefix_sum(prev)
            tree.add(prev, -1)
        tree.add(k, +1)
        last_pos[key] = k
    return out
