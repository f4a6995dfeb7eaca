"""Tests for request routing: ``ResilientRouter`` under each routing policy."""

import math

import numpy as np
import pytest

import repro.serving
import repro.serving.router
from repro.config import RMC1_SMALL
from repro.hw import BROADWELL, TimingModel
from repro.serving import POLICIES, ResilientRouter

SERVICE_S = TimingModel(BROADWELL).model_seconds(RMC1_SMALL, 16)


def make_router(policy="jsq2", machines=8, seed=0):
    return ResilientRouter(
        BROADWELL, RMC1_SMALL, batch_size=16, num_machines=machines,
        routing=policy, seed=seed,
    )


class TestRequestRouter:
    """The fleet router without faults, one routing policy at a time."""

    def test_all_queries_complete(self):
        router = make_router()
        qps = 0.5 * router.max_stable_qps()
        result = router.run(qps, duration_s=1.0)
        assert result.failed == 0
        assert result.throughput_qps() == pytest.approx(qps, rel=0.2)

    def test_latency_at_least_service(self):
        router = make_router()
        result = router.run(0.3 * router.max_stable_qps(), duration_s=1.0)
        assert result.latencies_s.min() >= 0.5 * SERVICE_S

    def test_light_load_latency_near_service_time(self):
        router = make_router()
        result = router.run(0.05 * router.max_stable_qps(), duration_s=2.0)
        assert result.summary().p50 == pytest.approx(SERVICE_S, rel=0.25)

    def test_heavy_load_builds_queues(self):
        router = make_router(machines=4, seed=1)
        light = router.run(0.2 * router.max_stable_qps(), duration_s=1.5)
        heavy = router.run(0.95 * router.max_stable_qps(), duration_s=1.5)
        assert heavy.summary().p99 > 2 * light.summary().p99

    def test_reproducible(self):
        a = make_router(seed=3).run(1000, duration_s=0.5)
        b = make_router(seed=3).run(1000, duration_s=0.5)
        np.testing.assert_array_equal(a.latencies_s, b.latencies_s)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_router(policy="magic")
        with pytest.raises(ValueError):
            make_router(machines=0)
        with pytest.raises(ValueError, match="rate and duration"):
            make_router().run(0)
        with pytest.raises(ValueError, match="rate and duration"):
            make_router().run(1000, duration_s=0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["offered_qps", "duration_s"])
    def test_rejects_non_finite_rate_and_duration(self, field, bad):
        kwargs = {"offered_qps": 1000.0, "duration_s": 0.01, field: bad}
        with pytest.raises(ValueError, match="rate and duration"):
            make_router().run(**kwargs)

    def test_single_machine_all_policies_equal_stream(self):
        # With one machine every policy picks it without drawing, so the
        # arrival and service draws, and every latency, are the same.
        results = []
        for policy in POLICIES:
            router = make_router(policy=policy, machines=1, seed=7)
            results.append(
                router.run(0.5 * router.max_stable_qps(), duration_s=0.5)
            )
        assert results[0].completed > 0
        for result in results[1:]:
            assert result.offered == results[0].offered
            np.testing.assert_array_equal(
                result.latencies_s, results[0].latencies_s
            )


class TestPolicyComparison:
    """The routing bench's settings: 10 replicas at 85% load for 2 s."""

    @pytest.fixture(scope="class")
    def results(self):
        results = {}
        for policy in POLICIES:
            router = make_router(policy=policy, machines=10, seed=5)
            results[policy] = router.run(
                0.85 * router.max_stable_qps(), duration_s=2.0
            )
        return results

    def test_all_policies_present(self, results):
        assert set(results) == set(POLICIES)
        # One arrival stream for all three, and no faults to fail a request.
        offered = {result.offered for result in results.values()}
        assert len(offered) == 1
        assert all(result.failed == 0 for result in results.values())

    def test_jsq2_beats_random_tail(self, results):
        """The power of two choices: sampled-shortest-queue cuts the tail."""
        assert results["jsq2"].summary().p99 < results["random"].summary().p99

    def test_round_robin_beats_random_tail(self, results):
        """Deterministic spreading avoids random's collision bursts."""
        assert (
            results["round_robin"].summary().p99
            <= results["random"].summary().p99 * 1.05
        )


def test_fault_free_copy_is_gone():
    retired = {"RequestRouter", "RoutingResult", "compare_policies"}
    assert not retired & set(repro.serving.__all__)
    for module in (repro.serving, repro.serving.router):
        assert not retired & set(vars(module)), module.__name__
