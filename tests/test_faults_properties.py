"""Property tests for the fault-injection and resilience layer.

Whatever storm is injected and whatever policy responds, the accounting
must stay honest: completions never exceed arrivals, availability lives
in [0, 1], goodput never exceeds throughput, and the zero-fault schedule
is inert.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import RMC1_SMALL
from repro.hw import BROADWELL
from repro.serving import (
    BandwidthFault,
    DegradationPolicy,
    FaultSchedule,
    ReplicaCrash,
    ResiliencePolicy,
    ResilientRouter,
    Straggler,
    fault_storm,
)

NUM_REPLICAS = 4
DURATION_S = 0.25


@st.composite
def fault_schedules(draw):
    """Random valid fault schedules over a small replica set."""
    crashes = [
        ReplicaCrash(
            replica_id=draw(st.integers(0, NUM_REPLICAS - 1)),
            at_s=draw(st.floats(0.0, DURATION_S, allow_nan=False)),
            downtime_s=draw(st.floats(0.01, DURATION_S, allow_nan=False)),
        )
        for _ in range(draw(st.integers(0, 2)))
    ]
    stragglers = [
        Straggler(
            replica_id=draw(st.integers(0, NUM_REPLICAS - 1)),
            start_s=draw(st.floats(0.0, DURATION_S, allow_nan=False)),
            duration_s=draw(st.floats(0.01, DURATION_S, allow_nan=False)),
            slowdown=draw(st.floats(1.5, 20.0, allow_nan=False)),
        )
        for _ in range(draw(st.integers(0, 2)))
    ]
    bandwidth = [
        BandwidthFault(
            start_s=draw(st.floats(0.0, DURATION_S, allow_nan=False)),
            duration_s=draw(st.floats(0.01, DURATION_S, allow_nan=False)),
            bandwidth_fraction=draw(st.floats(0.1, 0.9, allow_nan=False)),
            replica_id=draw(
                st.one_of(st.none(), st.integers(0, NUM_REPLICAS - 1))
            ),
        )
        for _ in range(draw(st.integers(0, 1)))
    ]
    return FaultSchedule(
        crashes=crashes, stragglers=stragglers, bandwidth_faults=bandwidth
    )


class TestScheduleProperties:
    @settings(max_examples=60, deadline=None)
    @given(schedule=fault_schedules(), t=st.floats(0.0, 2 * DURATION_S))
    def test_service_multiplier_at_least_one(self, schedule, t):
        for replica in range(NUM_REPLICAS):
            for frac in (0.0, 0.5, 1.0):
                assert schedule.service_multiplier(replica, t, frac) >= 1.0

    @settings(max_examples=60, deadline=None)
    @given(schedule=fault_schedules())
    def test_down_intervals_merged_and_ordered(self, schedule):
        for replica in range(NUM_REPLICAS):
            intervals = schedule.down_intervals(replica)
            for start_s, end_s in intervals:
                assert start_s < end_s
            for (_, prev_end), (nxt_start, _) in zip(intervals, intervals[1:]):
                assert nxt_start > prev_end  # disjoint, sorted

    @settings(max_examples=30, deadline=None)
    @given(schedule=fault_schedules())
    def test_transition_events_pair_up(self, schedule):
        events = schedule.transition_events(NUM_REPLICAS)
        downs = sum(1 for _, _, goes_down in events if goes_down)
        ups = sum(1 for _, _, goes_down in events if not goes_down)
        assert downs == ups == sum(
            len(schedule.down_intervals(r)) for r in range(NUM_REPLICAS)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        crashes=st.lists(
            st.tuples(
                st.integers(0, NUM_REPLICAS + 1),
                # A coarse grid makes overlapping and touching intervals
                # (one crash starting where another restarts) common.
                st.integers(0, 12),
                st.integers(1, 6),
            ),
            max_size=12,
        ),
        num_replicas=st.integers(1, NUM_REPLICAS),
    )
    def test_transition_events_match_per_replica_definition(
        self, crashes, num_replicas
    ):
        schedule = FaultSchedule(
            crashes=[
                ReplicaCrash(replica_id=r, at_s=0.01 * at, downtime_s=0.01 * dt)
                for r, at, dt in crashes
            ]
        )
        # The definition: each replica's merged intervals as edges, sorted;
        # crashes on replicas at or past num_replicas are ignored.
        expected = sorted(
            edge
            for replica_id in range(num_replicas)
            for start_s, end_s in schedule.down_intervals(replica_id)
            for edge in ((start_s, replica_id, True), (end_s, replica_id, False))
        )
        assert schedule.transition_events(num_replicas) == expected

    def test_zero_schedule_is_inert(self):
        zero = FaultSchedule.zero()
        assert zero.is_zero
        assert zero.service_multiplier(0, 0.1) == 1.0
        assert zero.transition_events(NUM_REPLICAS) == []

    def test_storm_is_reproducible(self):
        a = fault_storm(NUM_REPLICAS, DURATION_S, seed=3)
        b = fault_storm(NUM_REPLICAS, DURATION_S, seed=3)
        assert a.crashes == b.crashes
        assert a.stragglers == b.stragglers
        assert a.bandwidth_faults == b.bandwidth_faults
        c = fault_storm(NUM_REPLICAS, DURATION_S, seed=4)
        assert (a.crashes, a.stragglers) != (c.crashes, c.stragglers)


@pytest.fixture(scope="module")
def storm_and_router_args():
    storm = fault_storm(NUM_REPLICAS, DURATION_S, seed=21)
    args = (BROADWELL, RMC1_SMALL, 8, NUM_REPLICAS)
    probe = ResilientRouter(*args, seed=21)
    qps = 0.6 * probe.max_stable_qps()
    return storm, args, qps


POLICY_CASES = {
    "none": ResiliencePolicy.none(),
    "retry": ResiliencePolicy(timeout_s=0.002, max_retries=2),
    "hedge": ResiliencePolicy(
        timeout_s=0.002,
        max_retries=2,
        hedge_delay_s=0.0004,
        health_check_interval_s=0.003,
    ),
}


class TestRouterInvariants:
    @pytest.mark.parametrize("policy_name", sorted(POLICY_CASES))
    def test_accounting_invariants(self, storm_and_router_args, policy_name):
        storm, args, qps = storm_and_router_args
        router = ResilientRouter(
            *args, policy=POLICY_CASES[policy_name], seed=21
        )
        result = router.run(qps, DURATION_S, faults=storm)
        assert result.completed + result.failed <= result.offered
        assert 0.0 <= result.availability() <= 1.0
        assert result.goodput_qps() <= result.throughput_qps() + 1e-9
        stats = result.stats()
        assert 0.0 <= stats.availability <= 1.0
        assert 0.0 <= stats.degraded_fraction <= 1.0
        assert np.all(result.latencies_s >= 0.0)

    def test_degradation_accounting(self, storm_and_router_args):
        storm, args, qps = storm_and_router_args
        router = ResilientRouter(
            *args,
            policy=POLICY_CASES["hedge"],
            degradation=DegradationPolicy(
                max_lookups_per_table=4, min_healthy_fraction=0.95
            ),
            seed=21,
        )
        result = router.run(qps, DURATION_S, faults=storm)
        assert result.degraded_completions <= result.completed
        assert 0.0 <= result.time_in_degraded_s <= DURATION_S + 1e-9
        assert result.quality is not None
        assert 0.0 < result.quality["recall_at_k"] <= 1.0
        assert 0.0 < result.quality["ndcg_at_k"] <= 1.0

    def test_no_policy_no_faults_matches_plain_router_arrivals(self):
        router = ResilientRouter(
            BROADWELL, RMC1_SMALL, 8, NUM_REPLICAS, seed=3
        )
        a = router.run(5000.0, DURATION_S)
        b = ResilientRouter(
            BROADWELL, RMC1_SMALL, 8, NUM_REPLICAS, seed=3
        ).run(5000.0, DURATION_S)
        np.testing.assert_array_equal(a.latencies_s, b.latencies_s)
        assert a.failed == 0
        assert a.stats().retries == 0

    @pytest.mark.parametrize("bad", [2.5, True], ids=str)
    def test_rejects_a_non_integral_replica_count(self, bad):
        # A fractional count constructed, then raised ctypes' TypeError
        # in run(); True ran as one replica.
        router = ResilientRouter(BROADWELL, RMC1_SMALL, 8, np.int64(2), seed=3)
        assert router.run(5000.0, DURATION_S).completed > 0
        with pytest.raises(ValueError, match="num_machines"):
            ResilientRouter(BROADWELL, RMC1_SMALL, 8, bad)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["offered_qps", "duration_s"])
    def test_rejects_non_finite_rate_and_duration(self, field, bad):
        # Before the finiteness check, inf looped forever and a nan rate
        # returned an empty run.
        kwargs = {"offered_qps": 5000.0, "duration_s": DURATION_S, field: bad}
        router = ResilientRouter(BROADWELL, RMC1_SMALL, 8, NUM_REPLICAS)
        with pytest.raises(ValueError, match="rate and duration"):
            router.run(**kwargs)


#: Valid constructor arguments for every fault and policy type, and the
#: float fields each must reject when they are inf or nan.
NON_FINITE_CASES = {
    ResiliencePolicy: (
        {},
        ("timeout_s", "backoff_base_s", "hedge_delay_s", "health_check_interval_s"),
    ),
    ReplicaCrash: (
        {"replica_id": 0, "at_s": 0.01, "downtime_s": 0.01},
        ("at_s", "downtime_s"),
    ),
    Straggler: (
        {"replica_id": 0, "start_s": 0.0, "duration_s": 0.01, "slowdown": 2.0},
        ("start_s", "duration_s", "slowdown"),
    ),
    BandwidthFault: (
        {"start_s": 0.0, "duration_s": 0.01, "bandwidth_fraction": 0.5},
        ("start_s", "duration_s", "bandwidth_fraction"),
    ),
}


class TestRejectsNonFiniteTimes:
    # Before the check, an inf timeout, hedge delay or downtime made the
    # router raise IndexError, a nan crash time hung it, and a nan timeout
    # failed most requests with no fault injected.
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "cls, field",
        [
            (cls, field)
            for cls, (_, fields) in NON_FINITE_CASES.items()
            for field in fields
        ],
        ids=lambda value: getattr(value, "__name__", value),
    )
    def test_rejects_non_finite_field(self, cls, field, bad):
        kwargs = dict(NON_FINITE_CASES[cls][0])
        cls(**kwargs)  # the base arguments are valid
        kwargs[field] = bad
        with pytest.raises(ValueError, match="must be finite"):
            cls(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": 1025},
            {"max_retries": 1025, "backoff_base_s": 0.0},
            {"max_retries": 3, "backoff_base_s": 1e308},
        ],
    )
    def test_rejects_a_backoff_that_overflows(self, kwargs):
        with pytest.raises(ValueError, match="backoff"):
            ResiliencePolicy(**kwargs)

    def test_router_rejects_an_unknown_routing_policy(self):
        # Checked at construction: a run without arrivals never picks.
        with pytest.raises(ValueError, match="unknown policy"):
            ResilientRouter(BROADWELL, RMC1_SMALL, 8, 2, routing="least_loaded")

    def test_accepts_the_largest_finite_backoff(self):
        policy = ResiliencePolicy(max_retries=1024, backoff_base_s=1e-300)
        assert math.isfinite(policy.backoff_s(1023))


class TestPoliciesImproveTails:
    """The acceptance-criterion assertion: under one seeded storm, bounded
    retry + hedged requests cut p999 and raise goodput vs no policy."""

    def test_retry_and_hedge_beat_no_policy(self):
        from repro.experiments import fig11x_faults

        result = fig11x_faults.run(duration_s=0.8)
        none = result.outcomes["none"]
        hedged = result.outcomes["retry+hedge"]
        assert hedged.summary.p999 < none.summary.p999
        assert hedged.stats.goodput_qps > none.stats.goodput_qps
        assert hedged.stats.hedges > 0
        assert result.p999_reduction() > 1.5
