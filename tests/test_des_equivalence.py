"""DES equivalence: every fast loop must be bit-identical to its spec.

``ServingSimulator._run_reference`` is the simulator's executable
specification; its vectorized engine (and the self-compiled C backend)
re-derives the same event order from batched arrays. The router's spec
is the test-only per-event loop ``tests/oracles/resilient_router.py``
(``run_reference``); ``ResilientRouter.run`` keeps O(1) fleet state and
pre-sorted event streams instead. This suite drives spec and fast loop
through random policy x fault x load x tier compositions and asserts
*byte* equality of every observable — record arrays, counters, overload
books, downtime — plus RNG stream-position parity (a second run from the
same objects must also match) and request conservation.

``DES_EXAMPLES`` scales the hypothesis sweep (CI uses the default).
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import RMC1_SMALL
from repro.hw import BROADWELL
from repro.serving import (
    SLA,
    AdmissionPolicy,
    BreakerPolicy,
    BrownoutPolicy,
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
from repro.serving._des_native import native_available
from tests.oracles.resilient_router import run_reference

NUM_MACHINES = 4
DURATION_S = 0.04
SERVICE_S = ResilientRouter(
    BROADWELL, RMC1_SMALL, 8, NUM_MACHINES, seed=0
)._base_service_s

#: The two router loops every router test compares, called as
#: ``run(router, offered_qps, ...)``: the test-only spec and production.
ROUTER_RUNS = (run_reference, ResilientRouter.run)

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


def run_sim(engine, backend, load_factor, overload, faults, seed):
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
        engine=engine,
        backend=backend,
    )
    first = sim.run(DURATION_S)
    # Second run from the same simulator: equal keys here prove the RNG
    # stream position after the first run matched bitwise.
    second = sim.run(DURATION_S / 2)
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


class TestSimulatorEquivalence:
    @EQUIV
    @given(
        load_factor=st.one_of(st.none(), st.floats(0.3, 5.0)),
        overload=sim_overloads(),
        faults=fault_schedules(),
        seed=st.integers(0, 2**16),
    )
    def test_engines_bit_identical(self, load_factor, overload, faults, seed):
        _, ref_key, ref = run_sim(
            "reference", "auto", load_factor, overload, faults, seed
        )
        sim, vec_key, vec = run_sim(
            "vectorized", "python", load_factor, overload, faults, seed
        )
        assert sim.last_backend == "python"
        assert ref_key == vec_key
        check_conservation(
            vec.offered, len(vec.records), shed=vec.shed, killed=vec.killed
        )
        # Record-for-record equality through the SoA container.
        for i in (0, len(ref.records) // 2, len(ref.records) - 1):
            assert ref.records[i] == vec.records[i]

    @pytest.mark.skipif(not native_available(), reason="no C compiler")
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
        _, ref_key, _ = run_sim(
            "reference", "auto", load_factor, overload, faults, seed
        )
        sim, nat_key, _ = run_sim(
            "vectorized", "native", load_factor, overload, faults, seed
        )
        assert sim.last_backend == "native"
        assert ref_key == nat_key

    def test_tracing_does_not_perturb_results(self):
        from repro.obs import Tracer

        for engine in ("reference", "vectorized"):
            baseline = None
            for tracer in (None, Tracer()):
                sim = ServingSimulator(
                    BROADWELL,
                    RMC1_SMALL,
                    8,
                    num_instances=3,
                    per_instance_qps=2.0 / SERVICE_S,
                    seed=5,
                    tracer=tracer,
                    engine=engine,
                )
                key = sim_key(sim.run(DURATION_S))
                if baseline is None:
                    baseline = key
                else:
                    assert key == baseline, engine

    def test_native_backend_request_fails_loudly_when_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
        import repro.serving._des_native as dn

        monkeypatch.setattr(dn, "_CACHED", None)
        sim = ServingSimulator(
            BROADWELL, RMC1_SMALL, 8, 2, seed=1, engine="vectorized",
            backend="native",
        )
        with pytest.raises(RuntimeError, match="native DES backend"):
            sim.run(0.01)
        monkeypatch.setattr(dn, "_CACHED", None)


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
        spec_key, _ = run_router(
            run_reference, routing, load_factor, policy, overload, faults,
            seed,
        )
        key, result = run_router(
            ResilientRouter.run, routing, load_factor, policy, overload,
            faults, seed,
        )
        assert spec_key == key
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
        assert keys[0] == keys[1]

    def test_traced_runs_identical_across_engines(self):
        from repro.obs import Tracer, dumps_chrome
        from repro.serving import fault_storm

        dumps = []
        for run in ROUTER_RUNS:
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
        spec_key, _ = run_router(
            run_reference, "round_robin", load_factor, policy, None, faults,
            seed,
        )
        key, result = run_router(
            ResilientRouter.run, "round_robin", load_factor, policy, None,
            faults, seed,
        )
        assert spec_key == key
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
        assert keys[0] == keys[1]
