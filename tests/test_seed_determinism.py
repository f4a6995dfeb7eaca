"""Seed-determinism regression tests across the serving stack.

Every stochastic component must be a pure function of its explicit seed:
identical seeds give byte-identical results, different seeds differ, and
no RNG is derived from process-dependent state (``hash()`` salting was the
one offender — pinned here via :func:`repro.serving.stable_fc_seed`).
"""

import json
import re

import numpy as np
import pytest

from repro.config import RMC1_SMALL, RMC2_SMALL
from repro.hw import BROADWELL
from repro.serving import (
    BatchedServer,
    ContentionLevels,
    DiurnalLoadGenerator,
    FleetTopology,
    LoadSpike,
    MixedModelLoadGenerator,
    ModelClassRate,
    MultiModelPool,
    MultiModelRouter,
    PoissonLoadGenerator,
    ResiliencePolicy,
    ResilientRouter,
    ServingSimulator,
    domain_storm,
    fault_storm,
    stable_fc_seed,
)
from tests.test_serving_basics import pipeline


def _summary_bytes(seed: int) -> bytes:
    """Canonical byte serialization of one seeded simulation summary."""
    sim = ServingSimulator(
        ContentionLevels(BROADWELL, RMC2_SMALL, 16), num_instances=2,
        per_instance_qps=800, seed=seed,
    )
    result = sim.run(0.25)
    summary = result.summary()
    payload = {
        "count": summary.count,
        "mean": summary.mean,
        "p50": summary.p50,
        "p99": summary.p99,
        "p999": summary.p999,
        "offered": result.offered,
    }
    return json.dumps(payload, sort_keys=True).encode()


class TestSimulatorSeeds:
    def test_identical_seeds_byte_identical_summaries(self):
        assert _summary_bytes(5) == _summary_bytes(5)

    def test_different_seeds_differ(self):
        assert _summary_bytes(5) != _summary_bytes(6)


class TestRouterSeeds:
    def _run(self, seed: int, fault_seed: int) -> np.ndarray:
        router = ResilientRouter(
            BROADWELL, RMC1_SMALL, 8, 4,
            policy=ResiliencePolicy(timeout_s=0.002, max_retries=1,
                                    hedge_delay_s=0.0005),
            seed=seed,
        )
        storm = fault_storm(4, 0.2, seed=fault_seed)
        return router.run(15000.0, 0.2, faults=storm).latencies_s

    def test_identical_seeds_identical_latencies(self):
        np.testing.assert_array_equal(self._run(9, 2), self._run(9, 2))

    def test_router_seed_changes_latencies(self):
        assert not np.array_equal(self._run(9, 2), self._run(10, 2))

    def test_fault_seed_changes_latencies(self):
        assert not np.array_equal(self._run(9, 2), self._run(9, 3))


class TestLoadGeneratorSeeds:
    def test_spike_generator_reproducible(self):
        spikes = (LoadSpike(start_s=0.05, duration_s=0.1, multiplier=3.0),)

        def arrivals(seed):
            gen = DiurnalLoadGenerator(
                2000.0, amplitude=0.0, spikes=spikes, seed=seed
            )
            return [q.arrival_s for q in gen.generate(0.3)]

        assert arrivals(4) == arrivals(4)
        assert arrivals(4) != arrivals(5)


#: What a seed error names: a call that passes ``seed`` there.
SEEDED = {
    "PoissonLoadGenerator": lambda seed: PoissonLoadGenerator(100.0, seed=seed),
    "DiurnalLoadGenerator": lambda seed: DiurnalLoadGenerator(100.0, seed=seed),
    "MixedModelLoadGenerator": lambda seed: MixedModelLoadGenerator(
        (ModelClassRate("a", 100.0),), seed=seed
    ),
    "ServingSimulator": lambda seed: ServingSimulator(
        ContentionLevels(BROADWELL, RMC1_SMALL, 8), 1, seed=seed
    ),
    "ResilientRouter": lambda seed: ResilientRouter(
        BROADWELL, RMC1_SMALL, 8, 2, seed=seed
    ),
    "MultiModelRouter": lambda seed: MultiModelRouter(
        MultiModelPool((BROADWELL,), (RMC1_SMALL,)), seed=seed
    ),
    "fault_storm": lambda seed: fault_storm(2, 0.1, seed=seed),
    "domain_storm": lambda seed: domain_storm(
        FleetTopology(4), 0.1, seed=seed
    ),
    "BatchedServer.simulate": lambda seed: BatchedServer(
        BROADWELL, RMC1_SMALL
    ).simulate(1000.0, duration_s=0.01, seed=seed),
    "FilterRankPipeline.recommend": lambda seed: pipeline(seed=seed),
}


@pytest.mark.parametrize("bad", [2.5, True, -1], ids=["float", "bool", "negative"])
@pytest.mark.parametrize("owner", list(SEEDED))
def test_seed_is_checked_where_it_is_given(owner, bad):
    # A fractional seed used to construct and fail in numpy at run time
    # (TypeError), True ran as seed 1, and a negative seed raised numpy's
    # error, which names no field.
    SEEDED[owner](np.int64(3))
    with pytest.raises(ValueError, match=re.escape(f"{owner}.seed")):
        SEEDED[owner](bad)


class TestStableFcSeed:
    """Pin the hash()-free seed derivation for FC latency sampling.

    The previous derivation used ``hash((input_dim, output_dim))``, whose
    value is only stable by accident of CPython's int hashing; these pins
    fail loudly if anyone reintroduces interpreter-dependent seeding.
    """

    def test_pinned_values(self):
        assert stable_fc_seed(512, 512) == 2204730368
        assert stable_fc_seed(256, 64) == 790919872
        assert stable_fc_seed(64, 256) == 1056802880

    def test_fits_in_uint32(self):
        for input_dim in (1, 7, 512, 65536):
            for output_dim in (1, 13, 1024):
                seed = stable_fc_seed(input_dim, output_dim)
                assert 0 <= seed < 2**32

    def test_asymmetric_in_layout(self):
        assert stable_fc_seed(256, 64) != stable_fc_seed(64, 256)

    def test_fc_latency_samples_use_stable_seed(self):
        sim = ServingSimulator(
            ContentionLevels(BROADWELL, RMC2_SMALL, 16), num_instances=1,
            per_instance_qps=500, seed=0,
        )
        result = sim.run(0.1)
        a = sim.fc_latency_samples(result, 512, 512)
        b = sim.fc_latency_samples(result, 512, 512)
        np.testing.assert_array_equal(a, b)
