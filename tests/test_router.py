"""Tests for the request-routing simulator."""

import math

import numpy as np
import pytest

from repro.config import RMC1_SMALL
from repro.hw import BROADWELL
from repro.serving.router import POLICIES, RequestRouter, compare_policies


def make_router(policy="jsq2", machines=8, seed=0):
    return RequestRouter(
        BROADWELL, RMC1_SMALL, batch_size=16, num_machines=machines,
        policy=policy, seed=seed,
    )


class TestRequestRouter:
    def test_all_queries_complete(self):
        router = make_router()
        qps = 0.5 * router.max_stable_qps()
        result = router.run(qps, duration_s=1.0)
        assert result.throughput_qps() == pytest.approx(qps, rel=0.2)

    def test_latency_at_least_service(self):
        router = make_router()
        result = router.run(0.3 * router.max_stable_qps(), duration_s=1.0)
        assert result.latencies_s.min() >= 0.5 * router.mean_service_s()

    def test_light_load_latency_near_service_time(self):
        router = make_router()
        result = router.run(0.05 * router.max_stable_qps(), duration_s=2.0)
        assert result.summary().p50 == pytest.approx(
            router.mean_service_s(), rel=0.25
        )

    def test_heavy_load_builds_queues(self):
        router = make_router(machines=4)
        light = make_router(machines=4, seed=1).run(
            0.2 * router.max_stable_qps(), duration_s=1.5
        )
        heavy = make_router(machines=4, seed=1).run(
            0.95 * router.max_stable_qps(), duration_s=1.5
        )
        assert heavy.summary().p99 > 2 * light.summary().p99

    def test_reproducible(self):
        a = make_router(seed=3).run(1000, duration_s=0.5)
        b = make_router(seed=3).run(1000, duration_s=0.5)
        np.testing.assert_array_equal(a.latencies_s, b.latencies_s)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            make_router(policy="magic")
        with pytest.raises(ValueError):
            RequestRouter(BROADWELL, RMC1_SMALL, 16, 0)
        with pytest.raises(ValueError):
            make_router().run(0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["offered_qps", "duration_s"])
    def test_rejects_non_finite_rate_and_duration(self, field, bad):
        # Before the finiteness check, both looped forever.
        kwargs = {"offered_qps": 1000.0, "duration_s": 0.01, field: bad}
        with pytest.raises(ValueError, match="rate and duration"):
            make_router().run(**kwargs)

    def test_single_machine_all_policies_equal_stream(self):
        for policy in POLICIES:
            router = make_router(policy=policy, machines=1, seed=7)
            result = router.run(0.5 * router.max_stable_qps(), duration_s=0.5)
            assert len(result.latencies_s) > 0


class TestPolicyComparison:
    @pytest.fixture(scope="class")
    def results(self):
        return compare_policies(
            BROADWELL, RMC1_SMALL, batch_size=16, num_machines=10,
            utilization=0.85, duration_s=2.0, seed=5,
        )

    def test_all_policies_present(self, results):
        assert set(results) == set(POLICIES)

    def test_jsq2_beats_random_tail(self, results):
        """The power of two choices: sampled-shortest-queue cuts the tail."""
        assert results["jsq2"].summary().p99 < results["random"].summary().p99

    def test_round_robin_beats_random_tail(self, results):
        """Deterministic spreading avoids random's collision bursts."""
        assert (
            results["round_robin"].summary().p99
            <= results["random"].summary().p99 * 1.05
        )

    def test_rejects_bad_utilization(self):
        with pytest.raises(ValueError):
            compare_policies(BROADWELL, RMC1_SMALL, 16, 4, utilization=1.5)
