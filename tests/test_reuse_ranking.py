"""Tests for stack-distance analysis and ranking-quality metrics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.reuse import reuse_profile, stack_distances
from repro.memory import LruRowCache
from repro.serving.ranking_quality import ndcg_at_k, pipeline_quality, recall_at_k
from tests.oracles.stack_distances import stack_distances_fenwick


class TestStackDistances:
    def test_first_touches_marked(self):
        distances = stack_distances(np.array([1, 2, 3]))
        assert list(distances) == [-1, -1, -1]

    def test_immediate_reuse_distance_zero(self):
        distances = stack_distances(np.array([5, 5]))
        assert list(distances) == [-1, 0]

    def test_classic_example(self):
        # a b c b a : a's re-reference sees {b, c} distinct -> distance 2.
        distances = stack_distances(np.array([1, 2, 3, 2, 1]))
        assert list(distances) == [-1, -1, -1, 1, 2]

    def test_duplicates_between_do_not_double_count(self):
        # a b b a: distinct between the two a's is just {b}.
        distances = stack_distances(np.array([1, 2, 2, 1]))
        assert distances[3] == 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            stack_distances(np.array([], dtype=np.int64))

    @settings(max_examples=60, deadline=None)
    @given(
        ids=st.lists(
            st.integers(min_value=0, max_value=30)
            | st.sampled_from([-1, -(2**62), 2**62]),
            min_size=1,
            max_size=300,
        )
    )
    def test_property_sorting_matches_fenwick(self, ids):
        """The vectorized merge-count path is exactly the Fenwick walk."""
        trace = np.asarray(ids, dtype=np.int64)
        fenwick = stack_distances_fenwick(trace)
        sorting = stack_distances(trace)
        assert fenwick.tolist() == sorting.tolist()

    @pytest.mark.parametrize("skew", [False, True])
    def test_sorting_matches_fenwick_long_traces(self, skew):
        rng = np.random.default_rng(9)
        if skew:
            ids = (rng.zipf(1.3, size=5000) - 1) % 10_000
        else:
            ids = rng.integers(0, 400, size=5000)
        fenwick = stack_distances_fenwick(ids)
        sorting = stack_distances(ids)
        assert fenwick.tolist() == sorting.tolist()


class TestReuseProfile:
    def test_compulsory_fraction_is_unique_fraction(self):
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 200, size=3000)
        profile = reuse_profile(ids)
        assert profile.compulsory_fraction == pytest.approx(
            np.unique(ids).size / ids.size
        )

    def test_hit_ratio_monotone_in_capacity(self):
        rng = np.random.default_rng(1)
        ids = rng.integers(0, 500, size=4000)
        profile = reuse_profile(ids)
        ratios = [profile.hit_ratio(c) for c in (1, 10, 100, 1000)]
        assert ratios == sorted(ratios)

    def test_infinite_cache_hits_all_reuses(self):
        ids = np.array([1, 2, 1, 2, 3, 1])
        profile = reuse_profile(ids)
        assert profile.hit_ratio(10**6) == pytest.approx(1 - 3 / 6)

    def test_zero_capacity_no_hits(self):
        assert reuse_profile(np.array([1, 1, 1])).hit_ratio(0) == 0.0

    def test_working_set_size(self):
        # Cyclic scan of 3 IDs: need capacity 3 for any hits.
        ids = np.array([1, 2, 3] * 50)
        profile = reuse_profile(ids)
        assert profile.hit_ratio(2) == 0.0
        assert profile.hit_ratio(3) > 0.9
        assert profile.working_set_size(0.5) == 3

    def test_working_set_none_when_unreachable(self):
        profile = reuse_profile(np.array([1, 2, 3]))  # all compulsory
        assert profile.working_set_size(0.5) is None

    @settings(max_examples=25, deadline=None)
    @given(
        ids=st.lists(st.integers(0, 30), min_size=1, max_size=250),
        capacity=st.integers(1, 40),
    )
    def test_property_matches_lru_replay(self, ids, capacity):
        """The one-pass curve must equal an actual LRU replay, any size."""
        trace = np.array(ids)
        predicted = reuse_profile(trace).hit_ratio(capacity)
        replayed = LruRowCache(capacity).replay(trace).hit_ratio
        assert predicted == pytest.approx(replayed)


class TestRankingQuality:
    def test_recall_perfect(self):
        assert recall_at_k([3, 1, 2], [3, 1, 2, 0], k=3) == 1.0

    def test_recall_partial(self):
        assert recall_at_k([3, 9], [3, 1], k=2) == 0.5

    def test_recall_validates(self):
        with pytest.raises(ValueError):
            recall_at_k([1], [1], k=0)
        with pytest.raises(ValueError):
            recall_at_k([1], [1], k=5)

    def test_ndcg_perfect_order(self):
        relevance = {0: 3.0, 1: 2.0, 2: 1.0}
        assert ndcg_at_k([0, 1, 2], relevance, k=3) == pytest.approx(1.0)

    def test_ndcg_worst_order_below_one(self):
        relevance = {0: 3.0, 1: 2.0, 2: 1.0}
        assert ndcg_at_k([2, 1, 0], relevance, k=3) < 1.0

    def test_ndcg_rejects_negative_gain(self):
        with pytest.raises(ValueError):
            ndcg_at_k([0], {0: -1.0}, k=1)

    def test_pipeline_quality_combines(self):
        scores = np.array([0.1, 0.9, 0.5, 0.7])
        quality = pipeline_quality([1, 3], scores, k=2)
        assert quality["recall_at_k"] == 1.0
        assert quality["ndcg_at_k"] == pytest.approx(1.0)

    def test_random_selection_scores_low(self):
        rng = np.random.default_rng(2)
        scores = rng.random(500)
        random_pick = list(rng.choice(500, size=10, replace=False))
        quality = pipeline_quality(random_pick, scores, k=10)
        assert quality["recall_at_k"] < 0.4
