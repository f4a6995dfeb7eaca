"""DES edge cases: the router's loops must agree with its spec on them.

``ResilientRouter.run`` (its Python loop and, when it loads, its C
kernel) is compared with the router's test-only spec
(``tests/oracles/resilient_router.py``). ``ServingSimulator`` has one
loop, so its cases check invariants instead: request conservation and
per-instance FIFO record order. Satellites of the equivalence suite:
degenerate compositions where event ordering is most fragile —
multiple event kinds landing on one timestamp, zero-duration backoffs,
empty arrival streams, one-replica fleets, capacity-1 queues, routing
picks over one, two and many candidates, event times that overflow to
inf — plus the event-ordering regression tests for the explicit
``(time, seq)`` heap tie-breakers (permuted construction of the same
fault schedule must replay identically).
"""

import numpy as np
import pytest

from repro.config import RMC1_SMALL
from repro.hw import BROADWELL
from repro.serving import (
    SLA,
    AdmissionPolicy,
    BreakerPolicy,
    ContentionLevels,
    FaultSchedule,
    OverloadConfig,
    ReplicaCrash,
    ResiliencePolicy,
    ResilientRouter,
    ServingSimulator,
    Straggler,
    check_conservation,
)
from tests.test_des_equivalence import ROUTER_RUNS, SERVICE_S, router_key


def check_simulator(num_instances, **kwargs):
    """Run the simulator; assert conservation and FIFO order per instance.

    Each instance serves its requests one at a time in arrival order:
    arrivals never decrease along its records, and each inference starts
    no earlier than its arrival or the end of the one before it.
    """
    levels = ContentionLevels(BROADWELL, RMC1_SMALL, 8)
    sim = ServingSimulator(levels, num_instances, **kwargs)
    result = sim.run(0.03)
    in_flight = check_conservation(result.offered, len(result.records))
    assert in_flight >= 0
    for instance in range(num_instances):
        mine = [r for r in result.records if r.instance_id == instance]
        arrivals_s = np.array([r.arrival_s for r in mine])
        starts_s = np.array([r.start_s for r in mine])
        ends_s = np.array([r.end_s for r in mine])
        services_s = np.array([r.service_s for r in mine])
        assert np.all(np.diff(arrivals_s) >= 0.0)
        assert np.all(starts_s >= arrivals_s)
        assert np.all(starts_s[1:] >= ends_s[:-1])
        assert np.array_equal(ends_s, starts_s + services_s)
    return result


def router_keys(run_kwargs=None, **kwargs):
    run_kwargs = dict(run_kwargs or {})
    run_kwargs.setdefault("offered_qps", 2.0 * 2 / SERVICE_S)
    run_kwargs.setdefault("duration_s", 0.03)
    run_kwargs.setdefault("sla", SLA(deadline_s=25.0 * SERVICE_S))
    keys = []
    for run in ROUTER_RUNS:
        router = ResilientRouter(BROADWELL, RMC1_SMALL, 8, **kwargs)
        keys.append(router_key(run(router, **run_kwargs)))
    return keys


def assert_all_equal(keys):
    for key in keys[1:]:
        assert key == keys[0]


class TestSimultaneousEvents:
    def test_arrival_crash_restart_share_one_timestamp(self):
        # A crash, a restart of another replica, and explicit arrivals all
        # at t=0.01 — the (time, seq) tie-break must order them the same
        # way in every loop.
        t = 0.01
        faults = FaultSchedule(
            crashes=(
                ReplicaCrash(replica_id=0, at_s=t, downtime_s=0.005),
                ReplicaCrash(replica_id=1, at_s=t - 0.005, downtime_s=0.005),
            )
        )
        arrivals = [0.0, t, t, t, 0.02]
        assert_all_equal(
            router_keys(
                num_machines=2,
                seed=3,
                policy=ResiliencePolicy(
                    timeout_s=30.0 * SERVICE_S,
                    max_retries=1,
                    backoff_base_s=0.0,  # zero-duration backoff: retry
                    # lands on the failure's own timestamp
                ),
                run_kwargs={
                    "arrival_times_s": arrivals,
                    "faults": faults,
                },
            )
        )

    def test_breaker_transition_with_simultaneous_arrivals(self):
        # Timeouts trip breakers; tied arrival bursts then race the
        # breaker's open/half-open transitions on shared timestamps.
        faults = FaultSchedule(
            stragglers=(
                Straggler(
                    replica_id=0, start_s=0.0, duration_s=0.03, slowdown=50.0
                ),
            )
        )
        burst = sorted([0.0, 0.005, 0.005, 0.005, 0.01, 0.01, 0.02] * 3)
        assert_all_equal(
            router_keys(
                num_machines=2,
                seed=7,
                policy=ResiliencePolicy(
                    timeout_s=5.0 * SERVICE_S,
                    max_retries=1,
                    backoff_base_s=0.0,
                ),
                overload=OverloadConfig(
                    breaker=BreakerPolicy(
                        failure_threshold=1,
                        window_s=20.0 * SERVICE_S,
                        open_duration_s=10.0 * SERVICE_S,
                        half_open_probes=1,
                    )
                ),
                run_kwargs={"arrival_times_s": burst, "faults": faults},
            )
        )


class TestDegenerateStreams:
    def test_empty_arrival_stream(self):
        keys = router_keys(
            num_machines=2, seed=1, run_kwargs={"arrival_times_s": []}
        )
        assert_all_equal(keys)
        assert keys[0][0] == 0  # offered

    def test_near_empty_open_loop(self):
        # An arrival rate so low most seeds produce zero arrivals.
        result = check_simulator(
            num_instances=2, per_instance_qps=1e-6, seed=13
        )
        assert result.offered == len(result.records) == 0

    def test_single_replica_fleet(self):
        assert_all_equal(
            router_keys(
                num_machines=1,
                seed=2,
                policy=ResiliencePolicy(
                    timeout_s=30.0 * SERVICE_S, max_retries=2
                ),
                run_kwargs={
                    "offered_qps": 3.0 / SERVICE_S,
                    "faults": FaultSchedule(
                        crashes=(
                            ReplicaCrash(
                                replica_id=0, at_s=0.01, downtime_s=0.005
                            ),
                        )
                    ),
                },
            )
        )
        check_simulator(
            num_instances=1, per_instance_qps=2.0 / SERVICE_S, seed=4
        )

    @pytest.mark.parametrize(
        "shed_policy", ["reject_newest", "reject_oldest", "deadline_aware"]
    )
    def test_capacity_one_queues(self, shed_policy):
        admission = AdmissionPolicy(
            queue_capacity=1,
            shed_policy=shed_policy,
            deadline_s=10.0 * SERVICE_S,
            codel_target_s=2.0 * SERVICE_S,
            codel_interval_s=8.0 * SERVICE_S,
        )
        assert_all_equal(
            router_keys(
                num_machines=2,
                seed=6,
                overload=OverloadConfig(admission=admission),
                run_kwargs={"offered_qps": 8.0 * 2 / SERVICE_S},
            )
        )


class TestHugeBreakerThreshold:
    def test_threshold_far_above_any_failure_count(self):
        # A breaker that effectively never trips: the loops keep only the
        # failures seen, never a slot per possible failure.
        faults = FaultSchedule(
            crashes=(ReplicaCrash(replica_id=0, at_s=0.005, downtime_s=0.01),)
        )
        keys = router_keys(
            num_machines=2,
            seed=5,
            policy=ResiliencePolicy(timeout_s=5.0 * SERVICE_S, max_retries=1),
            overload=OverloadConfig(
                breaker=BreakerPolicy(failure_threshold=10**12)
            ),
            run_kwargs={"faults": faults, "offered_qps": 3.0 * 2 / SERVICE_S},
        )
        assert_all_equal(keys)


class TestRoutingPicks:
    """Every routing policy over one, two and many candidates.

    A crash ejects one replica and tripped breakers filter more, so picks
    also run over candidate subsets (and, on one replica, over none).
    """

    @pytest.mark.parametrize("num_machines", [1, 2, 12])
    @pytest.mark.parametrize("routing", ["round_robin", "random", "jsq2"])
    def test_picks_agree(self, routing, num_machines):
        faults = FaultSchedule(
            crashes=(
                ReplicaCrash(
                    replica_id=num_machines - 1, at_s=0.008, downtime_s=0.01
                ),
            ),
            stragglers=(
                Straggler(
                    replica_id=0, start_s=0.0, duration_s=0.02, slowdown=30.0
                ),
            ),
        )
        keys = router_keys(
            num_machines=num_machines,
            routing=routing,
            seed=11,
            policy=ResiliencePolicy(
                timeout_s=8.0 * SERVICE_S,
                max_retries=1,
                backoff_base_s=SERVICE_S,
                hedge_delay_s=3.0 * SERVICE_S,
            ),
            overload=OverloadConfig(
                breaker=BreakerPolicy(
                    failure_threshold=1,
                    window_s=20.0 * SERVICE_S,
                    open_duration_s=10.0 * SERVICE_S,
                )
            ),
            run_kwargs={
                "offered_qps": 2.5 * num_machines / SERVICE_S,
                "faults": faults,
            },
        )
        assert_all_equal(keys)
        assert keys[0][0] > 0  # offered


class TestOverflowingEventTimes:
    def test_inf_service_time_leaves_requests_unresolved(self):
        # Two overlapping finite slowdowns multiply to an inf service
        # time; its completion never fires, in every loop alike.
        stragglers = tuple(
            Straggler(replica_id=0, start_s=0.0, duration_s=0.03, slowdown=1e200)
            for _ in range(2)
        )
        keys = router_keys(
            num_machines=1,
            seed=4,
            run_kwargs={"faults": FaultSchedule(stragglers=stragglers)},
        )
        assert_all_equal(keys)
        offered, failed, latencies = keys[0][0], keys[0][1], keys[0][11]
        assert offered > 0 and failed == 0 and latencies == b""


class TestEventOrderingDeterminism:
    def test_permuted_fault_schedule_replays_identically(self):
        # The same faults listed in a different tuple order must yield
        # byte-identical runs: event seqs come from the schedule's sorted
        # transition edges, never from construction order.
        crashes = (
            ReplicaCrash(replica_id=0, at_s=0.01, downtime_s=0.004),
            ReplicaCrash(replica_id=1, at_s=0.01, downtime_s=0.004),
            ReplicaCrash(replica_id=2, at_s=0.005, downtime_s=0.009),
        )
        stragglers = (
            Straggler(replica_id=0, start_s=0.0, duration_s=0.02, slowdown=4.0),
            Straggler(replica_id=1, start_s=0.0, duration_s=0.02, slowdown=6.0),
        )
        forward = FaultSchedule(crashes=crashes, stragglers=stragglers)
        permuted = FaultSchedule(
            crashes=crashes[::-1], stragglers=stragglers[::-1]
        )
        for run in ROUTER_RUNS:
            runs = []
            for schedule in (forward, permuted):
                router = ResilientRouter(BROADWELL, RMC1_SMALL, 8, 3, seed=8)
                runs.append(
                    router_key(
                        run(
                            router,
                            offered_qps=2.0 * 3 / SERVICE_S,
                            duration_s=0.03,
                            faults=schedule,
                            sla=SLA(deadline_s=25.0 * SERVICE_S),
                        )
                    )
                )
            assert runs[0] == runs[1], run.__name__
