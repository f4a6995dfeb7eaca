"""Tests for input generation, sparse generators and embedding traces."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import MLPConfig, ModelConfig, uniform_tables
from repro.data import (
    EmbeddingTrace,
    InputGenerator,
    TemporalReuseGenerator,
    UniformSparseGenerator,
    ZipfSparseGenerator,
    dense_features,
    generate_inputs,
    random_trace,
    synthetic_production_traces,
)


@pytest.fixture(scope="module")
def config():
    return ModelConfig(
        name="t",
        model_class="RMC1",
        dense_features=6,
        bottom_mlp=MLPConfig([8, 4]),
        embedding_tables=uniform_tables(2, 100, 4, 3),
        top_mlp=MLPConfig([4, 1], final_activation="sigmoid"),
    )


class TestDense:
    def test_shape_and_dtype(self):
        x = dense_features(4, 7)
        assert x.shape == (4, 7)
        assert x.dtype == np.float32

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            dense_features(0, 7)


class TestSparseGenerators:
    def test_uniform_ids_in_range(self):
        gen = UniformSparseGenerator(rows=50, lookups_per_sample=4)
        batch = gen.batch(8, np.random.default_rng(0))
        assert batch.batch_size == 8
        assert batch.total_lookups == 32
        assert batch.ids.min() >= 0 and batch.ids.max() < 50

    def test_zipf_skews_to_popular_ids(self):
        rng = np.random.default_rng(0)
        gen = ZipfSparseGenerator(rows=1000, lookups_per_sample=1, alpha=1.5)
        ids = gen.ids(5000, rng)
        top_share = np.mean(ids < 10)
        assert top_share > 0.3  # heavy head

    def test_zipf_alpha_zero_near_uniform(self):
        rng = np.random.default_rng(0)
        gen = ZipfSparseGenerator(rows=1000, lookups_per_sample=1, alpha=0.0)
        ids = gen.ids(5000, rng)
        assert np.mean(ids < 10) < 0.05

    def test_temporal_reuse_controls_unique_fraction(self):
        rng = np.random.default_rng(0)
        low = TemporalReuseGenerator(10**6, 1, reuse_probability=0.1)
        high = TemporalReuseGenerator(10**6, 1, reuse_probability=0.9)
        low_ids = low.ids(3000, rng)
        high_ids = high.ids(3000, rng)
        low_unique = np.unique(low_ids).size / low_ids.size
        high_unique = np.unique(high_ids).size / high_ids.size
        assert low_unique > 0.8
        assert high_unique < 0.3

    def test_reuse_probability_validated(self):
        with pytest.raises(ValueError):
            TemporalReuseGenerator(100, 1, reuse_probability=1.0)

    @pytest.mark.parametrize(
        "make, field",
        [
            # Used to return float IDs such as 0.5.
            (lambda: ZipfSparseGenerator(rows=1.5, lookups_per_sample=1), "rows"),
            (lambda: UniformSparseGenerator(rows=True, lookups_per_sample=1), "rows"),
            (lambda: UniformSparseGenerator(rows=0, lookups_per_sample=1), "rows"),
            # rng.integers takes no exclusive bound above 2**63.
            (lambda: UniformSparseGenerator(2**63 + 1, 1), "rows"),
            (lambda: UniformSparseGenerator(10, lookups_per_sample=2.0), "lookups_per_sample"),
            (lambda: UniformSparseGenerator(10, lookups_per_sample=True), "lookups_per_sample"),
            # Used to return all-zero IDs.
            (lambda: ZipfSparseGenerator(10, 1, alpha=float("nan")), "alpha"),
            (lambda: ZipfSparseGenerator(10, 1, alpha=float("inf")), "alpha"),
            (lambda: ZipfSparseGenerator(10, 1, alpha=-0.5), "alpha"),
            # Used to raise TypeError from a slice.
            (lambda: TemporalReuseGenerator(10, 1, 0.5, history=2.5), "history"),
            (lambda: TemporalReuseGenerator(10, 1, 0.5, history=True), "history"),
            (lambda: TemporalReuseGenerator(10, 1, 0.5, history=0), "history"),
            (lambda: TemporalReuseGenerator(10, 1, float("nan")), "reuse_probability"),
        ],
    )
    def test_bad_inputs_name_the_field(self, make, field):
        with pytest.raises(ValueError, match=field):
            make()

    def test_largest_table_draws_in_range(self):
        rng = np.random.default_rng(0)
        for gen in (
            UniformSparseGenerator(2**63, 1),
            TemporalReuseGenerator(2**63, 1, reuse_probability=0.5),
        ):
            ids = gen.ids(100, rng)
            assert ids.dtype == np.int64 and ids.min() >= 0

    def test_numpy_integer_sizes_accepted(self):
        gen = TemporalReuseGenerator(np.int64(50), np.int32(2), 0.5, history=np.int64(8))
        assert (gen.rows, gen.lookups_per_sample, gen.history) == (50, 2, 8)
        assert gen.batch(4, np.random.default_rng(0)).ids.max() < 50

    @settings(max_examples=20, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=10_000),
        lookups=st.integers(min_value=1, max_value=8),
        batch=st.integers(min_value=1, max_value=16),
    )
    def test_property_batch_well_formed(self, rows, lookups, batch):
        gen = UniformSparseGenerator(rows, lookups)
        sb = gen.batch(batch, np.random.default_rng(1))
        assert sb.lengths.sum() == sb.ids.size
        assert np.all(sb.lengths == lookups)
        assert np.all((sb.ids >= 0) & (sb.ids < rows))


class TestInputGenerator:
    def test_matches_config(self, config):
        dense, sparse = generate_inputs(config, 5)
        assert dense.shape == (5, 6)
        assert len(sparse) == 2
        assert all(sp.batch_size == 5 for sp in sparse)

    def test_reproducible_by_seed(self, config):
        a_dense, a_sparse = generate_inputs(config, 3, seed=42)
        b_dense, b_sparse = generate_inputs(config, 3, seed=42)
        np.testing.assert_array_equal(a_dense, b_dense)
        np.testing.assert_array_equal(a_sparse[0].ids, b_sparse[0].ids)

    def test_rejects_wrong_generator_count(self, config):
        with pytest.raises(ValueError):
            InputGenerator(config, sparse_generators=[UniformSparseGenerator(100, 3)])

    def test_rejects_oversized_generator_domain(self, config):
        gens = [UniformSparseGenerator(1000, 3), UniformSparseGenerator(100, 3)]
        with pytest.raises(ValueError):
            InputGenerator(config, sparse_generators=gens)


class TestTraces:
    def test_unique_fraction_bounds(self):
        trace = random_trace(1_000_000, 2000)
        assert 0.9 < trace.unique_fraction() <= 1.0

    def test_unique_fraction_repeated_ids(self):
        trace = EmbeddingTrace("x", 10, np.array([1, 1, 1, 2], dtype=np.int64))
        assert trace.unique_fraction() == pytest.approx(0.5)

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(ValueError):
            EmbeddingTrace("x", 10, np.array([10], dtype=np.int64))

    def test_save_load_round_trip(self, tmp_path):
        trace = random_trace(1000, 100)
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = EmbeddingTrace.load(path)
        assert loaded.name == trace.name
        assert loaded.table_rows == trace.table_rows
        np.testing.assert_array_equal(loaded.ids, trace.ids)

    def test_synthetic_suite_spans_locality_axis(self):
        """Figure 14: traces range from near-random to heavily reusing."""
        traces = synthetic_production_traces(table_rows=500_000, length=4000)
        assert len(traces) == 10
        fractions = [t.unique_fraction() for t in traces]
        assert max(fractions) > 0.8
        assert min(fractions) < 0.15

    def test_synthetic_suite_deterministic(self):
        a = synthetic_production_traces(table_rows=10_000, length=500, seed=5)
        b = synthetic_production_traces(table_rows=10_000, length=500, seed=5)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.ids, tb.ids)
