"""Tests for the analysis helpers: roofline, MPKI, distributions, tables."""

import numpy as np
import pytest

from repro.analysis import (
    count_modes,
    figure5_intensity_points,
    format_bar_chart,
    format_table,
    instruction_estimate,
    intensity_point,
    measure_mpki,
    measure_sls_trace_mpki,
    summarize,
)
from repro.config import RMC1_SMALL
from repro.core.operators import EmbeddingTable, FullyConnected, SparseLengthsSum
from repro.hw import BROADWELL, measure_trace_hit_ratio, trace_driven_latency


class TestRoofline:
    def test_intensity_point_matches_cost(self):
        fc = FullyConnected("fc", 64, 64)
        point = intensity_point(fc, 4)
        cost = fc.cost(4)
        assert point.operational_intensity == pytest.approx(
            cost.flops / cost.bytes_read
        )

    def test_figure5_ordering(self):
        """SLS << RNN < FC < CNN (Figure 5 left)."""
        by_name = {p.name: p.operational_intensity for p in figure5_intensity_points()}
        assert by_name["SLS"] < 1 < by_name["RNN"] < by_name["FC"] < by_name["CNN"]

    def test_sls_intensity_near_quarter(self):
        by_name = {p.name: p.operational_intensity for p in figure5_intensity_points()}
        assert by_name["SLS"] == pytest.approx(0.25, abs=0.1)

    def test_rejects_zero_batch(self):
        with pytest.raises(ValueError):
            intensity_point(FullyConnected("fc", 4, 4), 0)


class TestMpki:
    def test_instruction_estimate_positive(self):
        fc = FullyConnected("fc", 64, 64)
        assert instruction_estimate(fc, 1) > 0

    def test_sls_charged_loop_overhead(self):
        table = EmbeddingTable(1000, 32)
        sls = SparseLengthsSum("s", table, lookups_per_sample=10)
        fc_like = instruction_estimate(FullyConnected("fc", 10, 32), 1)
        assert instruction_estimate(sls, 1) > fc_like

    def test_warm_fc_low_mpki(self):
        result = measure_mpki(
            FullyConnected("fc", 2048, 1000), BROADWELL, batch_size=32,
            iterations=4, warmup=1,
        )
        assert result.mpki < 2.0

    def test_random_sls_high_mpki(self):
        table = EmbeddingTable(1_000_000, 32)
        sls = SparseLengthsSum("s", table, lookups_per_sample=80)
        rows = np.random.default_rng(0).integers(0, table.rows, size=10_000)
        result = measure_sls_trace_mpki(sls, BROADWELL, rows)
        assert result.mpki > 5.0

    def test_local_trace_lower_mpki_than_random(self):
        table = EmbeddingTable(1_000_000, 32)
        sls = SparseLengthsSum("s", table, lookups_per_sample=80)
        rng = np.random.default_rng(0)
        random_rows = rng.integers(0, table.rows, size=8000)
        hot_rows = rng.integers(0, 1000, size=8000)  # small hot set
        random_mpki = measure_sls_trace_mpki(sls, BROADWELL, random_rows).mpki
        hot_mpki = measure_sls_trace_mpki(sls, BROADWELL, hot_rows).mpki
        assert hot_mpki < 0.3 * random_mpki

    def test_rejects_empty_trace(self):
        table = EmbeddingTable(100, 32)
        sls = SparseLengthsSum("s", table, 1)
        with pytest.raises(ValueError):
            measure_sls_trace_mpki(sls, BROADWELL, np.array([], dtype=np.int64))

    def test_rejects_bad_iterations(self):
        with pytest.raises(ValueError):
            measure_mpki(FullyConnected("fc", 8, 8), BROADWELL, iterations=1, warmup=1)

    @pytest.mark.parametrize(
        "call, field",
        [
            # Ran, and reported 18 instructions.
            pytest.param(
                lambda fc, sls: measure_mpki(fc, BROADWELL, batch_size=0),
                "batch_size", id="mpki-batch-zero",
            ),
            pytest.param(
                lambda fc, sls: measure_mpki(fc, BROADWELL, warmup=-1),
                "warmup", id="mpki-warmup-negative",
            ),
            # Raised a TypeError that named no field.
            pytest.param(
                lambda fc, sls: measure_mpki(fc, BROADWELL, iterations=2.5),
                "iterations", id="mpki-iterations-fractional",
            ),
            pytest.param(
                lambda fc, sls: measure_mpki(fc, BROADWELL, batch_size=2.5),
                "batch_size", id="mpki-batch-fractional",
            ),
            pytest.param(
                lambda fc, sls: measure_trace_hit_ratio(BROADWELL, 2.5, 32, [0, 1]),
                "table_rows", id="hit-ratio-rows-fractional",
            ),
            pytest.param(
                lambda fc, sls: measure_trace_hit_ratio(BROADWELL, 100, 2.5, [0, 1]),
                "embedding_dim", id="hit-ratio-dim-fractional",
            ),
            # Priced a fractional batch.
            pytest.param(
                lambda fc, sls: trace_driven_latency(
                    BROADWELL, RMC1_SMALL, np.arange(8), batch_size=2.5
                ),
                "batch_size", id="trace-latency-batch-fractional",
            ),
            # Replayed silently.
            pytest.param(
                lambda fc, sls: measure_sls_trace_mpki(
                    sls, BROADWELL, np.array([3, -1])
                ),
                "rows", id="trace-mpki-negative-id",
            ),
            pytest.param(
                lambda fc, sls: measure_trace_hit_ratio(BROADWELL, 100, 32, [3, -1]),
                "trace_ids", id="hit-ratio-negative-id",
            ),
            # Replayed 1.5 as row 1.
            pytest.param(
                lambda fc, sls: measure_sls_trace_mpki(sls, BROADWELL, np.array([1.5])),
                "rows", id="trace-mpki-fractional-id",
            ),
            pytest.param(
                lambda fc, sls: measure_trace_hit_ratio(BROADWELL, 100, 32, [1.5]),
                "trace_ids", id="hit-ratio-fractional-id",
            ),
        ],
    )
    def test_hostile_input_names_its_field(self, call, field):
        fc = FullyConnected("fc", 8, 8)
        sls = SparseLengthsSum("s", EmbeddingTable(100, 32), 1)
        with pytest.raises(ValueError, match=field):
            call(fc, sls)


class TestDistributions:
    def test_summary_percentile_order(self):
        s = summarize(np.random.default_rng(0).exponential(1.0, 1000))
        assert s.p5 <= s.p50 <= s.p95 <= s.p99
        assert s.count == 1000

    def test_summary_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_summary_rejects_negative(self):
        with pytest.raises(ValueError):
            summarize([-1.0])

    def test_tail_spread(self):
        s = summarize([1.0] * 99 + [10.0])
        assert s.tail_spread >= 1.0

    def test_single_mode_detected(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(100, 5, 3000)
        assert count_modes(samples) == 1

    def test_three_modes_detected(self):
        rng = np.random.default_rng(2)
        samples = np.concatenate(
            [rng.normal(40, 2, 1000), rng.normal(58, 2, 1000), rng.normal(75, 2, 1000)]
        )
        assert count_modes(samples) == 3

    def test_rejects_tiny_sample(self):
        with pytest.raises(ValueError):
            count_modes([1.0, 2.0])


class TestTables:
    def test_format_table_aligned(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", 0.001]])
        lines = text.split("\n")
        assert len({len(line) for line in lines}) == 1  # equal widths

    def test_format_table_rejects_ragged(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_format_bar_chart_scales(self):
        text = format_bar_chart(["x", "y"], [1.0, 2.0])
        x_line, y_line = text.split("\n")
        assert y_line.count("#") > x_line.count("#")

    def test_bar_chart_rejects_negative(self):
        with pytest.raises(ValueError):
            format_bar_chart(["x"], [-1.0])

    def test_bar_chart_rejects_mismatch(self):
        with pytest.raises(ValueError):
            format_bar_chart(["x"], [1.0, 2.0])
