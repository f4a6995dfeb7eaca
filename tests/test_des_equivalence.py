"""DES equivalence: the router's fast loops must be bit-identical to its spec.

The router's spec is the test-only per-event loop
``tests/oracles/resilient_router.py`` (``run_reference``);
``ResilientRouter.run`` keeps O(1) fleet state and pre-sorted event
streams instead, in a C kernel when one loads and in Python otherwise.
This suite drives the spec and both fast loops through random policy x
fault x load x tier compositions and asserts *byte* equality of every
observable — latencies, counters, overload books — plus RNG
stream-position parity (a second run from the same objects must also
match) and request conservation. Runs reach the Python loop through
``tests/reference_loops.py``. ``ServingSimulator`` has one loop; it is
checked against queueing theory in ``tests/test_queueing_oracles.py``.

``DES_EXAMPLES`` scales the hypothesis sweep (CI uses the default).
"""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import RMC1_SMALL
from repro.hw import BROADWELL
from repro.native import NPYRANDOM_ARCHIVE, _compiler
from repro.serving import (
    SLA,
    AdmissionPolicy,
    BreakerPolicy,
    BrownoutPolicy,
    DegradationPolicy,
    FaultSchedule,
    FleetTopology,
    OverloadConfig,
    ReplicaCrash,
    ResiliencePolicy,
    ResilientRouter,
    Straggler,
    check_conservation,
    default_brownout_tiers,
    domain_storm,
    fault_storm,
)
from repro.serving._des_native import native_available
from tests.oracles.resilient_router import run_reference
from tests.reference_loops import reference_loops

NUM_MACHINES = 4
DURATION_S = 0.04
SERVICE_S = ResilientRouter(
    BROADWELL, RMC1_SMALL, 8, NUM_MACHINES, seed=0
)._base_service_s


def run_python_loop(router, *args, **kwargs):
    """``ResilientRouter.run`` held to its Python loop."""
    with reference_loops():
        result = ResilientRouter.run(router, *args, **kwargs)
    assert router.last_backend == "reference"
    return result


def run_kernel(router, *args, **kwargs):
    """``ResilientRouter.run`` in the C kernel (untraced routers only)."""
    result = ResilientRouter.run(router, *args, **kwargs)
    assert router.last_backend == "native"
    return result


#: The router loops every router test compares, called as
#: ``run(router, offered_qps, ...)``: the test-only spec, the Python loop
#: and, when it loads, the C kernel (without it the kernel cases drop out;
#: ``test_des_kernel_loads_where_it_can`` keeps that from going unnoticed).
ROUTER_RUNS = (run_reference, run_python_loop) + (
    (run_kernel,) if native_available() else ()
)


EQUIV = settings(
    max_examples=int(os.environ.get("DES_EXAMPLES", "15")),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ------------------------------------------------------------- strategies


@st.composite
def admission_policies(draw) -> AdmissionPolicy:
    shed_policy = draw(
        st.sampled_from(["reject_newest", "reject_oldest", "deadline_aware"])
    )
    deadline = st.floats(5.0 * SERVICE_S, 50.0 * SERVICE_S)
    if shed_policy != "deadline_aware":
        deadline = st.one_of(st.none(), deadline)
    return AdmissionPolicy(
        queue_capacity=draw(st.integers(min_value=1, max_value=16)),
        shed_policy=shed_policy,
        deadline_s=draw(deadline),
        codel_target_s=draw(
            st.one_of(st.none(), st.floats(2.0 * SERVICE_S, 20.0 * SERVICE_S))
        ),
    )


def overload_configs() -> st.SearchStrategy[OverloadConfig | None]:
    breaker = st.builds(
        BreakerPolicy,
        failure_threshold=st.integers(min_value=1, max_value=6),
        window_s=st.floats(10.0 * SERVICE_S, 100.0 * SERVICE_S),
        open_duration_s=st.floats(10.0 * SERVICE_S, 200.0 * SERVICE_S),
        half_open_probes=st.integers(min_value=1, max_value=3),
    )
    brownout = st.builds(
        BrownoutPolicy,
        tiers=st.just(default_brownout_tiers(RMC1_SMALL)),
        step_up_depth=st.floats(2.0, 10.0),
        step_down_depth=st.floats(0.5, 1.5),
        dwell_s=st.floats(0.0, 30.0 * SERVICE_S),
    )
    config = st.builds(
        OverloadConfig,
        admission=st.one_of(st.none(), admission_policies()),
        breaker=st.one_of(st.none(), breaker),
        brownout=st.one_of(st.none(), brownout),
    )
    return st.one_of(st.none(), config)


def fault_schedules(
    num_replicas: int = NUM_MACHINES,
) -> st.SearchStrategy[FaultSchedule | None]:
    crash = st.builds(
        ReplicaCrash,
        replica_id=st.integers(0, num_replicas - 1),
        at_s=st.floats(0.0, 0.8 * DURATION_S),
        downtime_s=st.floats(0.05 * DURATION_S, 0.5 * DURATION_S),
    )
    straggler = st.builds(
        Straggler,
        replica_id=st.integers(0, num_replicas - 1),
        start_s=st.floats(0.0, 0.8 * DURATION_S),
        duration_s=st.floats(0.05 * DURATION_S, 0.5 * DURATION_S),
        slowdown=st.floats(2.0, 20.0),
    )
    schedule = st.builds(
        FaultSchedule,
        crashes=st.lists(crash, max_size=2),
        stragglers=st.lists(straggler, max_size=2),
    )
    return st.one_of(st.none(), schedule)


# -------------------------------------------------------------- run keys


def router_key(result) -> tuple:
    """Every observable of a router run, bytes-exact."""
    ovl = result.overload
    return (
        result.offered,
        result.failed,
        result.retries,
        result.hedges,
        result.wasted_attempts,
        result.fail_fasts,
        result.ejections,
        result.degraded_completions,
        result.time_in_degraded_s,
        result.quality,
        result.brownout_quality,
        np.asarray(result.latencies_s).tobytes(),
        None
        if ovl is None
        else (
            ovl.offered,
            ovl.admitted,
            tuple(sorted(ovl.shed_by_reason.items())),
            ovl.breaker_rejections,
            ovl.breaker_opens,
            ovl.brownout_switches,
            ovl.max_brownout_tier,
            tuple(ovl.time_in_tier_s),
            tuple(ovl.completions_by_tier),
            ovl.max_queue_depth,
        ),
    )


def run_router(run, routing, load_factor, policy, overload, faults, seed):
    router = ResilientRouter(
        BROADWELL,
        RMC1_SMALL,
        8,
        NUM_MACHINES,
        routing=routing,
        policy=policy,
        overload=overload,
        seed=seed,
    )
    sla = SLA(deadline_s=25.0 * SERVICE_S)
    first = run(
        router,
        offered_qps=load_factor * NUM_MACHINES / SERVICE_S,
        duration_s=DURATION_S,
        faults=faults,
        sla=sla,
    )
    second = run(
        router,
        offered_qps=load_factor * NUM_MACHINES / SERVICE_S,
        duration_s=DURATION_S / 2,
        faults=faults,
        sla=sla,
    )
    return router_key(first) + router_key(second), first


#: Every mechanism at once: timeouts, retries, hedges, health checks,
#: degradation, deadline-aware admission with CoDel, breakers, brownout
#: and a fault storm, at a load that exercises all of them.
FULL_STACK_RUN = dict(
    offered_qps=3.0 * NUM_MACHINES / SERVICE_S,
    duration_s=DURATION_S,
    faults=fault_storm(NUM_MACHINES, DURATION_S, seed=3),
    sla=SLA(deadline_s=25.0 * SERVICE_S),
)


def full_stack_router(routing="jsq2", tracer=None):
    return ResilientRouter(
        BROADWELL,
        RMC1_SMALL,
        8,
        NUM_MACHINES,
        routing=routing,
        policy=ResiliencePolicy(
            timeout_s=15.0 * SERVICE_S,
            max_retries=2,
            backoff_base_s=SERVICE_S,
            hedge_delay_s=4.0 * SERVICE_S,
            health_check_interval_s=10.0 * SERVICE_S,
        ),
        degradation=DegradationPolicy(
            max_lookups_per_table=4, queue_depth_trigger=3.0
        ),
        overload=OverloadConfig(
            admission=AdmissionPolicy(
                queue_capacity=3,
                shed_policy="deadline_aware",
                deadline_s=12.0 * SERVICE_S,
                codel_target_s=3.0 * SERVICE_S,
                codel_interval_s=6.0 * SERVICE_S,
            ),
            breaker=BreakerPolicy(
                failure_threshold=2,
                window_s=20.0 * SERVICE_S,
                open_duration_s=15.0 * SERVICE_S,
                half_open_probes=1,
            ),
            brownout=BrownoutPolicy(
                tiers=default_brownout_tiers(RMC1_SMALL),
                step_up_depth=2.0,
                step_down_depth=0.5,
                dwell_s=2.0 * SERVICE_S,
            ),
        ),
        seed=9,
        tracer=tracer,
    )


class TestRouterEquivalence:
    @EQUIV
    @given(
        routing=st.sampled_from(["round_robin", "random", "jsq2"]),
        load_factor=st.floats(0.3, 6.0),
        timeout_factor=st.one_of(st.none(), st.floats(10.0, 60.0)),
        hedge=st.booleans(),
        overload=overload_configs(),
        faults=fault_schedules(),
        seed=st.integers(0, 2**16),
    )
    def test_engines_bit_identical(
        self, routing, load_factor, timeout_factor, hedge, overload, faults,
        seed,
    ):
        policy = (
            ResiliencePolicy.none()
            if timeout_factor is None
            else ResiliencePolicy(
                timeout_s=timeout_factor * SERVICE_S,
                max_retries=1,
                backoff_base_s=SERVICE_S,
                hedge_delay_s=(20.0 * SERVICE_S if hedge else None),
            )
        )
        runs = [
            run_router(
                run, routing, load_factor, policy, overload, faults, seed
            )
            for run in ROUTER_RUNS
        ]
        for key, _ in runs[1:]:
            assert key == runs[0][0]
        result = runs[-1][1]
        check_conservation(
            result.offered, result.completed, failed=result.failed
        )
        assert result.unresolved >= 0

    @EQUIV
    @given(
        load_factor=st.floats(0.5, 4.0),
        overload=overload_configs(),
        seed=st.integers(0, 2**16),
        jitter=st.lists(
            st.floats(0.0, 0.9 * DURATION_S), min_size=1, max_size=40
        ),
    )
    def test_explicit_arrival_traces_match(
        self, load_factor, overload, seed, jitter
    ):
        # Out-of-order (and possibly tied) explicit arrival times take the
        # trace-driven path in both loops.
        arrivals = sorted(jitter, reverse=True)
        keys = []
        for run in ROUTER_RUNS:
            router = ResilientRouter(
                BROADWELL,
                RMC1_SMALL,
                8,
                NUM_MACHINES,
                overload=overload,
                seed=seed,
            )
            result = run(
                router,
                offered_qps=load_factor * NUM_MACHINES / SERVICE_S,
                duration_s=DURATION_S,
                arrival_times_s=arrivals,
                sla=SLA(deadline_s=25.0 * SERVICE_S),
            )
            keys.append(router_key(result))
        assert keys[1:] == keys[:1] * (len(keys) - 1)

    def test_traced_runs_identical_across_engines(self):
        from repro.obs import Tracer, dumps_chrome
        from repro.serving import fault_storm

        dumps = []
        # A traced production run takes the Python loop.
        for run in (run_reference, run_python_loop):
            tracer = Tracer()
            router = ResilientRouter(
                BROADWELL,
                RMC1_SMALL,
                8,
                NUM_MACHINES,
                policy=ResiliencePolicy(
                    timeout_s=30.0 * SERVICE_S,
                    max_retries=1,
                    backoff_base_s=SERVICE_S,
                ),
                overload=OverloadConfig(
                    admission=AdmissionPolicy(queue_capacity=4)
                ),
                seed=9,
                tracer=tracer,
            )
            run(
                router,
                offered_qps=3.0 * NUM_MACHINES / SERVICE_S,
                duration_s=DURATION_S,
                faults=fault_storm(NUM_MACHINES, DURATION_S, seed=3),
                sla=SLA(deadline_s=25.0 * SERVICE_S),
            )
            dumps.append(dumps_chrome(tracer))
        assert dumps[0] == dumps[1]

    def test_traced_run_takes_python_loop_and_matches_kernel(self):
        from repro.obs import Tracer

        keys = []
        for tracer in (None, Tracer()):
            router = full_stack_router(tracer=tracer)
            keys.append(router_key(router.run(**FULL_STACK_RUN)))
            expected = (
                "native" if tracer is None and native_available() else "reference"
            )
            assert router.last_backend == expected
        assert keys[0] == keys[1]

    def test_disabled_native_falls_back_to_python_loop(self):
        expected = router_key(full_stack_router().run(**FULL_STACK_RUN))
        router = full_stack_router()
        with reference_loops():
            assert router_key(router.run(**FULL_STACK_RUN)) == expected
        assert router.last_backend == "reference"

    @pytest.mark.skipif(
        not native_available(), reason="native kernel unavailable"
    )
    @pytest.mark.parametrize("routing", ["round_robin", "random", "jsq2"])
    def test_kernel_result_equals_python_loop_field_for_field(self, routing):
        results = [
            run(full_stack_router(routing=routing), **FULL_STACK_RUN)
            for run in (run_python_loop, run_kernel)
        ]
        python, kernel = (dataclasses.asdict(r) for r in results)
        assert python.keys() == kernel.keys()
        for name, value in python.items():
            other = kernel[name]
            assert type(other) is type(value), name
            if isinstance(value, np.ndarray):
                assert value.dtype == other.dtype
                assert value.tobytes() == other.tobytes(), name
            elif name == "overload":
                for field, book in value.items():
                    assert type(other[field]) is type(book), field
                    if isinstance(book, list):
                        assert [type(x) for x in book] == [
                            type(x) for x in other[field]
                        ], field
                assert other == value
                # Only reasons that occurred, in order of first occurrence.
                assert list(other["shed_by_reason"].items()) == list(
                    value["shed_by_reason"].items()
                )
                assert all(count > 0 for count in other["shed_by_reason"].values())
            else:
                assert other == value, name
        # The case sheds, retries and hedges.
        assert results[0].overload.shed > 0
        assert results[0].retries > 0 and results[0].hedges > 0


def test_des_kernel_loads_where_it_can():
    # With a compiler and numpy's libnpyrandom.a present, a kernel that
    # fails to build or link would silently drop every kernel case above.
    if os.environ.get("REPRO_DISABLE_NATIVE") == "1":
        pytest.skip("native kernels disabled")
    if _compiler() is None or not NPYRANDOM_ARCHIVE.is_file():
        pytest.skip("no C compiler or no libnpyrandom.a")
    assert native_available()


class TestCorrelatedScheduleEquivalence:
    """Domain schedules lower to plain fault primitives, so the spec-vs-
    production bit-identity proof must keep holding on correlated storms
    too."""

    TOPOLOGY = FleetTopology(
        num_replicas=NUM_MACHINES,
        replicas_per_host=1,
        hosts_per_rack=2,
        racks_per_zone=1,
    )

    @EQUIV
    @given(
        storm_seed=st.integers(0, 2**16),
        load_factor=st.floats(0.3, 6.0),
        timeout_factor=st.one_of(st.none(), st.floats(10.0, 60.0)),
        seed=st.integers(0, 2**16),
    )
    def test_expanded_domain_storms_bit_identical(
        self, storm_seed, load_factor, timeout_factor, seed
    ):
        storm = domain_storm(self.TOPOLOGY, DURATION_S, seed=storm_seed)
        faults = storm.expand_to_schedule(self.TOPOLOGY)
        policy = (
            ResiliencePolicy.none()
            if timeout_factor is None
            else ResiliencePolicy(
                timeout_s=timeout_factor * SERVICE_S,
                max_retries=1,
                backoff_base_s=SERVICE_S,
            )
        )
        runs = [
            run_router(
                run, "round_robin", load_factor, policy, None, faults, seed
            )
            for run in ROUTER_RUNS
        ]
        for key, _ in runs[1:]:
            assert key == runs[0][0]
        result = runs[-1][1]
        check_conservation(
            result.offered, result.completed, failed=result.failed
        )

    @EQUIV
    @given(
        storm_seed=st.integers(0, 2**16),
        load_factor=st.floats(0.3, 6.0),
        seed=st.integers(0, 2**16),
    )
    def test_correlated_fault_storms_bit_identical(
        self, storm_seed, load_factor, seed
    ):
        # Correlated crashes and stragglers under the fleet-wide bandwidth
        # dips of an independent storm drawn at the same seed.
        expanded = domain_storm(
            self.TOPOLOGY, DURATION_S, seed=storm_seed
        ).expand_to_schedule(self.TOPOLOGY)
        dips = fault_storm(NUM_MACHINES, DURATION_S, seed=storm_seed)
        faults = FaultSchedule(
            expanded.crashes, expanded.stragglers, dips.bandwidth_faults
        )
        keys = [
            run_router(
                run, "round_robin", load_factor,
                ResiliencePolicy.none(), None, faults, seed,
            )[0]
            for run in ROUTER_RUNS
        ]
        assert keys[1:] == keys[:1] * (len(keys) - 1)
