"""Tier-1 tests for repro.obs.profile — per-operator cycle attribution."""

from __future__ import annotations

import pytest

from repro.config import presets
from repro.hw.server import BROADWELL
from repro.hw.timing import TimingModel
from repro.obs import OpProfiler


class TestOpProfiler:
    def test_record_op_accumulates(self):
        profiler = OpProfiler()
        profiler.record_op("FC", 100.0, 64.0)
        profiler.record_op("FC", 50.0, 32.0)
        profiler.record_op("SLS", 50.0, 128.0)
        assert profiler.total_cycles() == pytest.approx(200.0)
        assert profiler.cycles_by_op_type() == {"FC": 150.0, "SLS": 50.0}
        assert profiler.bytes_by_op_type() == {"FC": 96.0, "SLS": 128.0}
        assert profiler.by_op_type["FC"].invocations == 2
        fractions = profiler.fraction_by_op_type()
        assert fractions["FC"] == pytest.approx(0.75)
        assert fractions["SLS"] == pytest.approx(0.25)

    def test_negative_cost_rejected(self):
        profiler = OpProfiler()
        with pytest.raises(ValueError, match="non-negative"):
            profiler.record_op("FC", -1.0, 0.0)
        with pytest.raises(ValueError, match="non-negative"):
            profiler.record_op("FC", 1.0, -1.0)

    def test_empty_profiler_has_no_fractions(self):
        assert OpProfiler().fraction_by_op_type() == {}

    def test_merged_combines_shards(self):
        a, b = OpProfiler(), OpProfiler()
        a.record_op("FC", 100.0, 10.0)
        b.record_op("FC", 50.0, 5.0)
        b.record_op("SLS", 25.0, 50.0)
        merged = a.merged(b)
        assert merged.cycles_by_op_type() == {"FC": 150.0, "SLS": 25.0}
        assert merged.by_op_type["FC"].invocations == 2

    def test_render_lists_operators(self):
        profiler = OpProfiler()
        profiler.record_op("FC", 100.0, 64.0)
        text = profiler.render()
        assert "FC" in text


class TestTimingModelHook:
    def test_model_latency_reports_every_op(self):
        profiler = OpProfiler()
        timing = TimingModel(BROADWELL, profiler=profiler)
        latency = timing.model_latency(presets.RMC1_SMALL, batch=4)
        # Every priced operator reported exactly once, cycles = seconds * f.
        total_invocations = sum(
            a.invocations for a in profiler.by_op_type.values()
        )
        assert total_invocations == len(latency.per_op)
        expected_cycles = latency.total_seconds * BROADWELL.frequency_ghz * 1e9
        assert profiler.total_cycles() == pytest.approx(expected_cycles)

    def test_profiling_does_not_change_latencies(self):
        plain = TimingModel(BROADWELL).model_latency(presets.RMC1_SMALL, batch=4)
        profiled = TimingModel(BROADWELL, profiler=OpProfiler()).model_latency(
            presets.RMC1_SMALL, batch=4
        )
        assert plain == profiled
