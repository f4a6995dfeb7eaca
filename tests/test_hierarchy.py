"""Tests for the inclusive/exclusive cache hierarchy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.operators.base import MemoryAccess
from repro.data.reuse import stack_distances
from repro.hw.hierarchy import CacheHierarchy
from repro.hw.server import BROADWELL, SKYLAKE
from repro.hw.vectorized import VectorizedSetAssociativeCache
from tests.test_engine_equivalence import TINY_SKYLAKE, both_loops


def read(address, size=64):
    return MemoryAccess(address=address, size=size)


def resident(level) -> list[int]:
    """Every line a cache level holds, on either loop."""
    if isinstance(level, VectorizedSetAssociativeCache):
        return [
            int(line)
            for tags, occupied in zip(level.tags, level.occupancy)
            for line in tags[:occupied]
        ]
    return [line for cache_set in level._sets for line in cache_set]


def lru_hits(lines: np.ndarray, num_sets: int, ways: int) -> int:
    """Hits of a ``ways``-way LRU cache with ``num_sets`` sets on ``lines``.

    An independent oracle: a reference hits exactly when fewer than
    ``ways`` distinct lines of its set were touched since the previous
    reference to its line, i.e. when its stack distance within its set's
    subsequence is in ``[0, ways)``.
    """
    sets = lines % num_sets
    hits = 0
    for s in np.unique(sets):
        distances = stack_distances(lines[sets == s])
        hits += int(((distances >= 0) & (distances < ways)).sum())
    return hits


class TestBasicFlow:
    def test_first_access_goes_to_dram(self):
        h = CacheHierarchy(BROADWELL)
        h.access(read(0))
        assert h.stats.dram_accesses == 1

    def test_repeat_access_hits_l1(self):
        h = CacheHierarchy(BROADWELL)
        h.access(read(0))
        h.access(read(0))
        assert h.stats.l1_hits == 1

    def test_multi_line_access_counts_lines(self):
        h = CacheHierarchy(BROADWELL)
        h.access(read(0, size=256))
        assert h.stats.dram_accesses == 4

    def test_l3_share_shrinks_cache(self):
        full = CacheHierarchy(BROADWELL)
        shared = CacheHierarchy(BROADWELL, l3_share=0.1)
        assert shared.l3.size_bytes < full.l3.size_bytes

    def test_rejects_bad_share(self):
        with pytest.raises(ValueError):
            CacheHierarchy(BROADWELL, l3_share=0.0)

    def test_mpki_requires_instructions(self):
        h = CacheHierarchy(BROADWELL)
        with pytest.raises(ValueError):
            h.stats.llc_mpki(0)


class TestInclusionSemantics:
    def test_inclusive_l3_eviction_back_invalidates_l2(self):
        """The Haswell/Broadwell mechanism behind co-location sensitivity."""
        h = CacheHierarchy(BROADWELL, l3_share=0.01)  # tiny LLC
        # Touch a line, then thrash the L3 with foreign lines.
        h.access(read(0))
        h.external_llc_pressure(evict_lines=h.l3.size_bytes // 64 * 4)
        assert h.stats.l2_back_invalidations >= 1

    def test_exclusive_hierarchy_never_back_invalidates(self):
        h = CacheHierarchy(SKYLAKE, l3_share=0.01)
        h.access(read(0))
        h.external_llc_pressure(evict_lines=h.l3.size_bytes // 64 * 4)
        assert h.stats.l2_back_invalidations == 0

    def test_exclusive_l2_keeps_line_despite_llc_churn(self):
        """A Skylake L2-resident line survives LLC churn; on Broadwell the
        same churn can invalidate it (Figure 11's contrast)."""
        skl = CacheHierarchy(SKYLAKE, l3_share=0.01)
        skl.access(read(0))
        skl.external_llc_pressure(evict_lines=4096)
        skl.reset_stats()
        skl.access(read(0))
        assert skl.stats.l1_hits == 1  # still in the core caches

    def test_inclusive_line_in_l2_is_also_in_l3(self):
        h = CacheHierarchy(BROADWELL)
        h.access(read(12345 * 64))
        line = 12345
        if h.l2.probe(line):
            assert h.l3.probe(line)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=4095), max_size=300))
    def test_property_inclusion_invariant(self, lines):
        """In an inclusive hierarchy, every L2-resident line is L3-resident."""
        for h in both_loops(BROADWELL, l3_share=0.002):
            for line in lines:
                h.access(read(line * 64))
            for line in resident(h.l2):
                assert h.l3.probe(line)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=4095), max_size=300))
    def test_property_exclusive_l2_l3_mostly_disjoint(self, lines):
        """In the victim-style hierarchy, a line sits in L2 or L3, not both."""
        for h in both_loops(SKYLAKE, l3_share=0.002):
            for line in lines:
                h.access(read(line * 64))
            for line in resident(h.l2):
                assert not h.l3.probe(line)


class TestStackDistanceOracle:
    """Non-inclusive, no prefetch: nothing invalidates L1, so it is an LRU.

    L3 evictions reach neither L1 nor L2 in the victim-style hierarchy,
    so even interleaved foreign LLC pressure leaves L1 a plain per-set
    LRU, and its hits must match the stack-distance oracle exactly.
    """

    @settings(max_examples=20, deadline=None)
    @given(
        server=st.sampled_from([SKYLAKE, TINY_SKYLAKE]),
        seed=st.integers(0, 2**32 - 1),
        footprint=st.sampled_from([20, 300, 5_000, 200_000]),
        skew=st.floats(1.05, 2.0),
        length=st.integers(1, 6_000),
        pressure=st.lists(st.integers(0, 3_000), max_size=3),
    )
    def test_l1_hits_match_stack_distances(
        self, server, seed, footprint, skew, length, pressure
    ):
        rng = np.random.default_rng(seed)
        ranks = (rng.zipf(skew, size=length) - 1) % footprint
        lines = rng.permutation(footprint)[ranks].astype(np.int64)
        chunks = np.array_split(lines, len(pressure) + 1)
        assert not server.inclusive_llc
        expected = None
        for h in both_loops(server, l3_share=0.5, prefetch_degree=0):
            for chunk, evict_lines in zip(chunks, pressure + [0]):
                h.access_lines(chunk)
                h.external_llc_pressure(evict_lines)
            if expected is None:
                expected = lru_hits(lines, h.l1.num_sets, h.l1.associativity)
            assert h.stats.l1_hits == expected
            assert h.l1.stats.hits == expected


class TestIrregularVsStreaming:
    def test_random_gathers_miss_more_than_streaming(self):
        """The Figure 5 mechanism: SLS-style random rows vs FC-style reuse."""
        rng = np.random.default_rng(0)
        irregular = CacheHierarchy(BROADWELL)
        table_bytes = 512 * 1024 * 1024  # 512 MB table
        for _ in range(2000):
            addr = int(rng.integers(0, table_bytes // 128)) * 128
            irregular.access(read(addr, size=128))

        streaming = CacheHierarchy(BROADWELL)
        weights = 2 * 1024 * 1024  # 2 MB weights, re-streamed
        for _ in range(10):
            streaming.access(read(0, size=weights))

        irregular_ratio = irregular.stats.dram_accesses / max(
            1, irregular.stats.total_line_accesses
        )
        streaming_ratio = streaming.stats.dram_accesses / max(
            1, streaming.stats.total_line_accesses
        )
        assert irregular_ratio > 5 * streaming_ratio

    def test_l2_miss_ratio_bounds(self):
        h = CacheHierarchy(BROADWELL)
        h.access(read(0))
        assert 0.0 <= h.stats.l2_miss_ratio() <= 1.0
