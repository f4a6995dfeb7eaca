"""DES equivalence: every fast loop must be bit-identical to its spec.

``ServingSimulator._run_reference`` is the simulator's executable
specification; ``ServingSimulator.run`` takes a self-compiled C kernel
over the same event order, pre-sorted from batched arrays, whenever it
loads and nothing observes the run. The router's spec
is the test-only per-event loop ``tests/oracles/resilient_router.py``
(``run_reference``); ``ResilientRouter.run`` keeps O(1) fleet state and
pre-sorted event streams instead, in a C kernel when one loads and in
Python otherwise. This suite drives the spec and every fast loop through
random policy x fault x load x tier compositions and asserts *byte*
equality of every observable — record arrays, counters, overload books,
downtime — plus RNG stream-position parity (a second run from the same
objects must also match) and request conservation. Runs reach the
reference loops through ``tests/reference_loops.py``.

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
from repro.hw._native import _compiler
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
    ServingSimulator,
    Straggler,
    check_conservation,
    default_brownout_tiers,
    domain_storm,
    fault_storm,
)
from repro.serving._des_native import _NPYRANDOM_ARCHIVE, native_available
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


def run_sim_reference(sim, duration_s):
    """``ServingSimulator.run`` held to its reference loop (the spec)."""
    with reference_loops():
        result = sim.run(duration_s)
    assert sim.last_backend == "reference"
    return result


def run_sim_kernel(sim, duration_s):
    """``ServingSimulator.run`` in the C kernel (unobserved runs only)."""
    result = sim.run(duration_s)
    assert sim.last_backend == "native"
    return result


#: The simulator loops every simulator test compares, called as
#: ``run(sim, duration_s)``: the reference loop and, when it loads, the
#: C kernel.
SIM_RUNS = (run_sim_reference,) + (
    (run_sim_kernel,) if native_available() else ()
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


def sim_key(result) -> tuple:
    """Every observable of a simulator run, bytes-exact."""
    return (
        result.offered,
        result.killed,
        result.shed,
        result.max_queue_depth,
        result.downtime_s,
        len(result.records),
        np.asarray(result.latencies_s()).tobytes(),
        np.asarray(result.service_times_s()).tobytes(),
        np.asarray(result.active_job_counts()).tobytes(),
    )


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


def sim_overloads() -> st.SearchStrategy[OverloadConfig | None]:
    # The simulator composes admission control only (breakers/brownout
    # live in the router).
    return st.one_of(
        st.none(), st.builds(OverloadConfig, admission=admission_policies())
    )


def run_sim(run, load_factor, overload, faults, seed):
    sim = ServingSimulator(
        BROADWELL,
        RMC1_SMALL,
        batch_size=8,
        num_instances=NUM_MACHINES,
        per_instance_qps=(
            None if load_factor is None else load_factor / SERVICE_S
        ),
        seed=seed,
        overload=overload,
        faults=faults,
    )
    first = run(sim, DURATION_S)
    # Second run from the same simulator: equal keys here prove the RNG
    # stream position after the first run matched bitwise.
    second = run(sim, DURATION_S / 2)
    return sim, sim_key(first) + sim_key(second), first


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


class TestSimulatorEquivalence:
    @pytest.mark.skipif(
        not native_available(), reason="native kernel unavailable"
    )
    @EQUIV
    @given(
        load_factor=st.one_of(st.none(), st.floats(0.3, 5.0)),
        overload=sim_overloads(),
        faults=fault_schedules(),
        seed=st.integers(0, 2**16),
    )
    def test_native_backend_bit_identical(
        self, load_factor, overload, faults, seed
    ):
        _, ref_key, ref = run_sim(
            run_sim_reference, load_factor, overload, faults, seed
        )
        _, nat_key, nat = run_sim(
            run_sim_kernel, load_factor, overload, faults, seed
        )
        assert ref_key == nat_key
        check_conservation(
            nat.offered, len(nat.records), shed=nat.shed, killed=nat.killed
        )
        # Record-for-record equality: both loops return a RecordBatch.
        assert ref.records == nat.records
        for i in (0, len(ref.records) // 2, len(ref.records) - 1):
            assert ref.records[i] == nat.records[i]

    def test_tracing_does_not_perturb_results(self):
        from repro.obs import Tracer

        def simulator(tracer):
            return ServingSimulator(
                BROADWELL,
                RMC1_SMALL,
                8,
                num_instances=3,
                per_instance_qps=2.0 / SERVICE_S,
                seed=5,
                tracer=tracer,
            )

        results = [run(simulator(None), DURATION_S) for run in SIM_RUNS]
        # An observed run takes the reference loop.
        traced = simulator(Tracer())
        results.append(traced.run(DURATION_S))
        assert traced.last_backend == "reference"
        keys = [sim_key(result) for result in results]
        assert keys[1:] == keys[:1] * (len(keys) - 1)
        assert all(r.records == results[0].records for r in results)

    def test_vectorized_falls_back_to_reference(self):
        faults = FaultSchedule(
            crashes=(ReplicaCrash(replica_id=1, at_s=0.01, downtime_s=0.01),)
        )
        overload = OverloadConfig(admission=AdmissionPolicy(queue_capacity=2))
        keys = [
            run_sim(run, 3.0, overload, faults, 21)[1] for run in SIM_RUNS
        ]
        assert keys[1:] == keys[:1] * (len(keys) - 1)


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
    if _compiler() is None or not _NPYRANDOM_ARCHIVE.is_file():
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
        correlation=st.floats(0.0, 1.0),
        load_factor=st.floats(0.3, 6.0),
        seed=st.integers(0, 2**16),
    )
    def test_correlated_fault_storms_bit_identical(
        self, storm_seed, correlation, load_factor, seed
    ):
        faults = fault_storm(
            NUM_MACHINES,
            DURATION_S,
            seed=storm_seed,
            topology=self.TOPOLOGY,
            correlation=correlation,
        )
        keys = [
            run_router(
                run, "round_robin", load_factor,
                ResiliencePolicy.none(), None, faults, seed,
            )[0]
            for run in ROUTER_RUNS
        ]
        assert keys[1:] == keys[:1] * (len(keys) - 1)
