"""Tests for the discrete-event serving simulator."""

import contextlib
import gc
import math
import weakref

import numpy as np
import pytest

from repro.config import RMC1_SMALL, RMC2_SMALL
from repro.hw import BROADWELL, SKYLAKE
from repro.serving import ContentionLevels, ServingSimulator
from tests.reference_loops import reference_loops

#: The simulator has one loop and no kernel. These cases run it with the
#: other engines' kernels held off ("reference") and allowed to load
#: ("vectorized"), so its input checks and lifetime cannot come to depend
#: on whether a kernel loads.
LOOPS = [
    pytest.param(reference_loops, id="reference"),
    pytest.param(contextlib.nullcontext, id="vectorized"),
]


@pytest.fixture(scope="module")
def result_open():
    sim = ServingSimulator(
        ContentionLevels(BROADWELL, RMC2_SMALL, 32), num_instances=4,
        per_instance_qps=50, seed=0,
    )
    return sim, sim.run(0.5)


class TestOpenLoop:
    def test_records_produced(self, result_open):
        _, result = result_open
        assert len(result.records) > 20

    def test_latency_at_least_service(self, result_open):
        _, result = result_open
        for record in result.records:
            assert record.latency_s >= record.service_s - 1e-12
            assert record.queue_s >= -1e-12

    def test_dispatch_times_ordered_per_instance(self, result_open):
        _, result = result_open
        by_instance = {}
        for record in result.records:
            by_instance.setdefault(record.instance_id, []).append(record)
        for records in by_instance.values():
            starts = [r.start_s for r in sorted(records, key=lambda r: r.start_s)]
            ends = [r.end_s for r in sorted(records, key=lambda r: r.start_s)]
            for s, e_prev in zip(starts[1:], ends[:-1]):
                assert s >= e_prev - 1e-12  # one inference at a time

    def test_active_counts_bounded(self, result_open):
        _, result = result_open
        counts = result.active_job_counts()
        assert counts.min() >= 1
        assert counts.max() <= 4

    def test_reproducible_by_seed(self):
        def run():
            sim = ServingSimulator(
                ContentionLevels(BROADWELL, RMC2_SMALL, 32), num_instances=2,
                per_instance_qps=50, seed=7,
            )
            return sim.run(0.3).latencies_s()

        np.testing.assert_array_equal(run(), run())

    def test_summary_and_throughput(self, result_open):
        _, result = result_open
        summary = result.summary()
        assert summary.p99 >= summary.p50 >= summary.p5
        assert result.throughput_items_per_s() > 0


class TestClosedLoop:
    def test_instances_always_busy(self):
        sim = ServingSimulator(
            ContentionLevels(BROADWELL, RMC2_SMALL, 32), num_instances=3, seed=1
        )
        result = sim.run(0.3)
        counts = result.active_job_counts()
        # After startup every dispatch sees all instances active.
        assert np.median(counts) == 3

    def test_more_instances_more_throughput(self):
        levels = ContentionLevels(BROADWELL, RMC2_SMALL, 32)

        def throughput(n):
            sim = ServingSimulator(levels, num_instances=n, seed=1)
            return sim.run(0.3).throughput_items_per_s()

        assert throughput(4) > 1.5 * throughput(1)

    def test_contention_slows_service(self):
        levels = ContentionLevels(BROADWELL, RMC2_SMALL, 32)
        alone = ServingSimulator(levels, 1, seed=2).run(0.3)
        packed = ServingSimulator(levels, 8, seed=2).run(0.3)
        assert packed.service_times_s().mean() > 1.5 * alone.service_times_s().mean()


class TestNoiseModel:
    def test_noise_grows_with_contention_on_inclusive(self):
        levels = ContentionLevels(BROADWELL, RMC2_SMALL, 32)
        assert levels.noise_sigma(8) > levels.noise_sigma(1)

    def test_inclusive_noisier_than_exclusive(self):
        bdw = ContentionLevels(BROADWELL, RMC2_SMALL, 32)
        skl = ContentionLevels(SKYLAKE, RMC2_SMALL, 32)
        assert bdw.noise_sigma(8) > skl.noise_sigma(8)


class TestLifetime:
    @pytest.mark.parametrize("loop", LOOPS)
    def test_simulator_dies_after_run(self, loop):
        """No module-level cache keeps a finished simulator or its table alive."""
        sim = ServingSimulator(
            ContentionLevels(BROADWELL, RMC2_SMALL, 32), num_instances=4,
            per_instance_qps=50, seed=0,
        )
        with loop():
            result = sim.run(0.05)
        assert len(result.records) > 0
        assert len(sim.fc_latency_samples(result, 512, 512)) == len(result.records)
        refs = [weakref.ref(sim), weakref.ref(sim.levels)]
        del sim, result
        gc.collect()
        assert [ref() for ref in refs] == [None, None]


class TestFcSamples:
    def test_sample_count_matches_records(self, result_open):
        sim, result = result_open
        samples = sim.fc_latency_samples(result, 512, 512)
        assert samples.shape == (len(result.records),)
        assert np.all(samples > 0)

    def test_skylake_fc_insensitive_to_colocation(self):
        """FC that fits Skylake's L2 barely varies (Figure 11a)."""
        sim = ServingSimulator(ContentionLevels(SKYLAKE, RMC2_SMALL, 32), 16, seed=3)
        result = sim.run(0.3)
        samples = sim.fc_latency_samples(result, 512, 512)
        assert samples.std() / samples.mean() < 0.12


class TestValidation:
    def test_rejects_zero_instances(self):
        with pytest.raises(ValueError):
            ServingSimulator(ContentionLevels(BROADWELL, RMC1_SMALL, 1), 0)

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("num_instances", 2.5),
            ("num_instances", True),
            ("batch_size", 2.5),
            ("batch_size", True),
        ],
        ids=str,
    )
    def test_rejects_non_integral_counts(self, field, bad):
        # A fractional instance count constructed, then raised a TypeError
        # in run(); a fractional batch was priced without a word. The batch
        # is the table's, the instance count the simulator's.
        def simulator(batch_size=4, num_instances=2):
            levels = ContentionLevels(BROADWELL, RMC1_SMALL, batch_size)
            return ServingSimulator(levels, num_instances)

        assert simulator(**{field: np.int64(2)}).run(0.01).records
        with pytest.raises(ValueError, match=field):
            simulator(**{field: bad})

    def test_rejects_bad_qps(self):
        with pytest.raises(ValueError):
            ServingSimulator(
                ContentionLevels(BROADWELL, RMC1_SMALL, 1), 1, per_instance_qps=0
            )

    def test_rejects_bad_duration(self):
        sim = ServingSimulator(ContentionLevels(BROADWELL, RMC1_SMALL, 1), 1)
        with pytest.raises(ValueError):
            sim.run(0.0)

    @pytest.mark.parametrize("loop", LOOPS)
    @pytest.mark.parametrize("field", ["qps", "duration"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite_inputs(self, value, field, loop):
        """An inf or nan rate or horizon used to hang the event loop."""
        levels = ContentionLevels(BROADWELL, RMC1_SMALL, 1)
        if field == "qps":
            with pytest.raises(ValueError, match="finite"):
                ServingSimulator(levels, 2, per_instance_qps=value)
            return
        for qps in (None, 50.0):  # closed and open loop
            sim = ServingSimulator(levels, 2, per_instance_qps=qps)
            with loop(), pytest.raises(ValueError, match="finite"):
                sim.run(value)

    def test_backend_option_is_gone(self):
        # The simulator picks its own loop: there is no option to pass.
        # Nor does it take faults, admission control or observers; those
        # live in ResilientRouter.
        levels = ContentionLevels(BROADWELL, RMC1_SMALL, 1)
        for option in (
            "backend", "engine", "faults", "overload", "tracer", "profiler",
            "metrics",
        ):
            with pytest.raises(TypeError, match="unexpected keyword"):
                ServingSimulator(levels, 1, **{option: None})

    def test_takes_only_a_level_table(self):
        # One constructor form: the server, model, batch and hyperthreading
        # go to the table, never to the simulator.
        with pytest.raises(TypeError, match="levels"):
            ServingSimulator(BROADWELL, RMC1_SMALL, 1, 1)
        with pytest.raises(TypeError, match="unexpected keyword"):
            ServingSimulator(
                ContentionLevels(BROADWELL, RMC1_SMALL, 1), 1,
                hyperthreading=True,
            )
