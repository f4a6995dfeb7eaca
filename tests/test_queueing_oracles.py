"""Independent oracles for the serving DES: queueing theory.

No check here compares one loop with another; each compares a run with a
closed form.

* With one instance, ``ServingSimulator`` is an M/G/1 FIFO queue:
  Poisson arrivals at rate λ and service S = base·LN(−σ²/2, σ), so
  E[S] = base and E[S²] = base²·exp(σ²). The mean queue wait must match
  Pollaczek–Khinchine, W = λE[S²] / (2(1 − λ·base)), and the busy
  fraction must equal λ·base.
* In closed loop every instance is always busy at contention level N, so
  N instances complete N·D/E[S(N)] requests in D seconds.
* ``ResilientRouter`` with ``random`` routing, no faults,
  ``ResiliencePolicy.none()`` and no overload protection splits Poisson
  arrivals uniformly, so each of its M replicas is an independent M/G/1
  FIFO queue at rate λ/M, and the mean latency is the P-K wait plus
  ``base_s``.

λ is the realized rate (offered / duration), so the checks do not also
carry the noise of the arrival count. Seeds are fixed. Each tolerance is
about three standard errors of its estimate or more, measured over ten
seeds.
"""

import math

import numpy as np
import pytest

from repro.config import RMC1_SMALL, RMC2_SMALL
from repro.hw import BROADWELL
from repro.serving import ResiliencePolicy, ResilientRouter, ServingSimulator
from repro.serving.router import SERVICE_NOISE_SIGMA


def pk_wait_s(rate_qps: float, mean_s: float, second_moment_s2: float) -> float:
    """Pollaczek–Khinchine mean queue wait of an M/G/1 FIFO queue."""
    return rate_qps * second_moment_s2 / (2.0 * (1.0 - rate_qps * mean_s))


class TestSimulatorMG1:
    # RMC2-small's service time grows with the contention level (RMC1-small's
    # is flat up to 8 jobs), so a wrong active-job count shows up here.
    RHO = 0.5
    REQUESTS = 20_000
    SEEDS = (0, 1, 2, 3, 4)

    @pytest.fixture(scope="class")
    def runs(self):
        probe = ServingSimulator(BROADWELL, RMC2_SMALL, 8, 1)
        base_s = probe.timing.model_latency(
            RMC2_SMALL, 8, probe.state_for(1)
        ).total_seconds
        sigma = probe.noise_sigma(1)
        rate_qps = self.RHO / base_s
        duration_s = self.REQUESTS / rate_qps
        results = [
            ServingSimulator(
                BROADWELL, RMC2_SMALL, 8, 1, per_instance_qps=rate_qps, seed=seed
            ).run(duration_s)
            for seed in self.SEEDS
        ]
        return base_s, sigma, duration_s, results

    def test_mean_wait_matches_pollaczek_khinchine(self, runs):
        base_s, sigma, duration_s, results = runs
        # One seed's mean wait has a ~1.5% standard error at this size.
        waits = []
        for result in results:
            rate_qps = result.offered / duration_s
            expected_s = pk_wait_s(rate_qps, base_s, base_s**2 * math.exp(sigma**2))
            wait_s = float(np.mean([r.queue_s for r in result.records]))
            waits.append(wait_s / expected_s)
        assert float(np.mean(waits)) == pytest.approx(1.0, rel=0.025)
        assert waits == pytest.approx([1.0] * len(waits), rel=0.04)

    def test_busy_fraction_is_load(self, runs):
        base_s, _, duration_s, results = runs
        for result in results:
            busy = float(np.sum(result.service_times_s())) / duration_s
            rho = result.offered / duration_s * base_s
            assert busy == pytest.approx(rho, rel=0.01)

    @pytest.mark.parametrize("instances", [1, 4])
    def test_closed_loop_completes_d_over_service(self, instances):
        sim = ServingSimulator(BROADWELL, RMC2_SMALL, 8, instances, seed=3)
        base_s = sim.timing.model_latency(
            RMC2_SMALL, 8, sim.state_for(instances)
        ).total_seconds
        duration_s = 4000 * base_s
        result = sim.run(duration_s)
        expected = instances * duration_s / base_s
        assert len(result.records) == pytest.approx(expected, rel=0.002)


class TestRouterMG1:
    REPLICAS = 8
    REQUESTS = 40_000
    SEEDS = (0, 1, 2, 3)

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.7])
    def test_mean_latency_matches_pollaczek_khinchine(self, rho):
        base_s = ResilientRouter(BROADWELL, RMC1_SMALL, 8, 1)._base_service_s
        second_moment_s2 = base_s**2 * math.exp(SERVICE_NOISE_SIGMA**2)
        offered_qps = rho * self.REPLICAS / base_s
        duration_s = self.REQUESTS / offered_qps
        ratios = []
        for seed in self.SEEDS:
            router = ResilientRouter(
                BROADWELL,
                RMC1_SMALL,
                8,
                self.REPLICAS,
                policy=ResiliencePolicy.none(),
                routing="random",
                seed=seed,
            )
            result = router.run(offered_qps, duration_s)
            assert result.failed == 0
            rate_qps = result.offered / duration_s / self.REPLICAS
            expected_s = pk_wait_s(rate_qps, base_s, second_moment_s2) + base_s
            ratios.append(float(np.mean(result.latencies_s)) / expected_s)
        # One seed's mean latency has a standard error of up to ~0.8%
        # (at rho = 0.7).
        assert float(np.mean(ratios)) == pytest.approx(1.0, rel=0.013)
