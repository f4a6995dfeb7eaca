"""Chaos smoke: random overload + fault sweeps must conserve requests.

Short hypothesis-driven runs of the protected serving stack under
randomly drawn load, protection policies, and fault schedules. Whatever
the draw, the books must balance:

* request level — offered = completed + failed + unresolved (router),
  offered = completed + in-flight (simulator), offered = completed per
  model (multi-model router);
* rate level — goodput <= throughput <= offered rate.

CI runs this as a dedicated "chaos smoke" step with
``CHAOS_EXAMPLES=40``; crank the sweep with ``CHAOS_EXAMPLES=200``
locally when touching the overload or DES layers.
"""

import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import RMC1_SMALL, RMC2_SMALL, RMC3_SMALL
from repro.hw import BROADWELL, SKYLAKE
from repro.serving import (
    SLA,
    AdmissionPolicy,
    BreakerPolicy,
    BrownoutPolicy,
    ContentionLevels,
    FaultSchedule,
    FleetTopology,
    MultiModelPool,
    MultiModelRouter,
    NetworkConfig,
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
    recovery_timeline,
    replicate_shards,
    shard_tables,
)
from tests.test_multimodel import flat_trace

NUM_MACHINES = 3
DURATION_S = 0.05
SERVICE_S = ResilientRouter(
    BROADWELL, RMC1_SMALL, 8, NUM_MACHINES, seed=0
)._base_service_s

CHAOS = settings(
    max_examples=int(os.environ.get("CHAOS_EXAMPLES", "15")),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def admission_policies(draw) -> AdmissionPolicy:
    shed_policy = draw(
        st.sampled_from(["reject_newest", "reject_oldest", "deadline_aware"])
    )
    deadline = st.floats(5.0 * SERVICE_S, 50.0 * SERVICE_S)
    if shed_policy != "deadline_aware":  # deadline_aware requires a deadline
        deadline = st.one_of(st.none(), deadline)
    return AdmissionPolicy(
        queue_capacity=draw(st.integers(min_value=1, max_value=32)),
        shed_policy=shed_policy,
        deadline_s=draw(deadline),
        codel_target_s=draw(
            st.one_of(
                st.none(), st.floats(2.0 * SERVICE_S, 20.0 * SERVICE_S)
            )
        ),
    )


def overload_configs() -> st.SearchStrategy[OverloadConfig | None]:
    admission = admission_policies()
    breaker = st.builds(
        BreakerPolicy,
        failure_threshold=st.integers(min_value=1, max_value=8),
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
        admission=st.one_of(st.none(), admission),
        breaker=st.one_of(st.none(), breaker),
        brownout=st.one_of(st.none(), brownout),
    )
    return st.one_of(st.none(), config)


def fault_schedules() -> st.SearchStrategy[FaultSchedule | None]:
    crash = st.builds(
        ReplicaCrash,
        replica_id=st.integers(0, NUM_MACHINES - 1),
        at_s=st.floats(0.0, 0.8 * DURATION_S),
        downtime_s=st.floats(0.05 * DURATION_S, 0.5 * DURATION_S),
    )
    straggler = st.builds(
        Straggler,
        replica_id=st.integers(0, NUM_MACHINES - 1),
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


class TestRouterChaos:
    @CHAOS
    @given(
        overload=overload_configs(),
        faults=fault_schedules(),
        load_factor=st.floats(0.3, 6.0),
        timeout_factor=st.one_of(st.none(), st.floats(10.0, 60.0)),
        seed=st.integers(0, 2**16),
    )
    def test_conservation_and_rate_ordering(
        self, overload, faults, load_factor, timeout_factor, seed
    ):
        policy = (
            ResiliencePolicy.none()
            if timeout_factor is None
            else ResiliencePolicy(
                timeout_s=timeout_factor * SERVICE_S,
                max_retries=1,
                backoff_base_s=SERVICE_S,
            )
        )
        router = ResilientRouter(
            BROADWELL,
            RMC1_SMALL,
            8,
            NUM_MACHINES,
            policy=policy,
            overload=overload,
            seed=seed,
        )
        result = router.run(
            offered_qps=load_factor * NUM_MACHINES / SERVICE_S,
            duration_s=DURATION_S,
            faults=faults,
            sla=SLA(deadline_s=25.0 * SERVICE_S),
        )
        # Request conservation: every offered request is accounted for.
        assert result.unresolved >= 0
        assert result.offered == (
            result.completed + result.failed + result.unresolved
        )
        stats = result.stats()
        assert stats.completed == len(result.latencies_s)
        # Rate ordering: goodput <= throughput <= offered rate.
        offered_qps = result.offered / DURATION_S
        assert 0.0 <= stats.goodput_qps <= stats.throughput_qps
        assert stats.throughput_qps <= offered_qps + 1e-9
        # Overload books balance against the request-level tallies.
        if result.overload is not None:
            ovl = result.overload
            assert ovl.offered >= result.offered  # retries re-offer
            # Door-time outcomes partition the offered attempts; evictions
            # (reject_oldest) and CoDel drops shed *admitted* work, so
            # they sit on the other side of the ledger.
            door_shed = ovl.shed_by_reason.get(
                "queue_full", 0
            ) + ovl.shed_by_reason.get("deadline_hopeless", 0)
            post_admit_shed = ovl.shed_by_reason.get(
                "oldest_dropped", 0
            ) + ovl.shed_by_reason.get("codel_sojourn", 0)
            assert ovl.admitted + door_shed + ovl.breaker_rejections == (
                ovl.offered
            )
            assert post_admit_shed <= ovl.admitted
            assert ovl.shed == sum(ovl.shed_by_reason.values())
            if ovl.completions_by_tier:  # tracked only under brownout
                assert sum(ovl.completions_by_tier) == result.completed
            if ovl.time_in_tier_s:
                assert sum(ovl.time_in_tier_s) <= DURATION_S * 1.001

    @CHAOS
    @given(
        overload=overload_configs(),
        faults=fault_schedules(),
        load_factor=st.floats(0.3, 6.0),
        seed=st.integers(0, 2**16),
    )
    def test_runs_are_deterministic(self, overload, faults, load_factor, seed):
        def once():
            return ResilientRouter(
                BROADWELL,
                RMC1_SMALL,
                8,
                NUM_MACHINES,
                overload=overload,
                seed=seed,
            ).run(
                offered_qps=load_factor * NUM_MACHINES / SERVICE_S,
                duration_s=DURATION_S,
                faults=faults,
                sla=SLA(deadline_s=25.0 * SERVICE_S),
            )

        a, b = once(), once()
        assert a.offered == b.offered
        assert a.completed == b.completed
        assert list(a.latencies_s) == list(b.latencies_s)


class TestSimulatorChaos:
    @CHAOS
    @given(load_factor=st.floats(0.3, 5.0), seed=st.integers(0, 2**16))
    def test_conservation(self, load_factor, seed):
        sim = ServingSimulator(
            ContentionLevels(BROADWELL, RMC1_SMALL, batch_size=8),
            num_instances=NUM_MACHINES,
            per_instance_qps=load_factor / SERVICE_S,
            seed=seed,
        )
        result = sim.run(DURATION_S)
        in_flight = check_conservation(result.offered, len(result.records))
        # Every dispatched inference completes, so what is left is each
        # instance's backlog, no deeper than the deepest one seen.
        assert in_flight <= NUM_MACHINES * result.max_queue_depth


#: Every replica its own host/rack/zone: any replication factor ≤ 3 is
#: feasible and every domain kind has several domains to storm.
DOMAIN_TOPOLOGY = FleetTopology(
    num_replicas=NUM_MACHINES,
    replicas_per_host=1,
    hosts_per_rack=1,
    racks_per_zone=1,
)


def zone_storm_under_dips(seed: int) -> FaultSchedule:
    """A zone-kind domain storm under the fleet-wide bandwidth dips of an
    independent storm drawn at the same seed."""
    expanded = domain_storm(
        DOMAIN_TOPOLOGY, DURATION_S, seed=seed, kinds=("zone",)
    ).expand_to_schedule(DOMAIN_TOPOLOGY)
    dips = fault_storm(NUM_MACHINES, DURATION_S, seed=seed)
    return FaultSchedule(
        expanded.crashes, expanded.stragglers, dips.bandwidth_faults
    )


def correlated_schedules() -> st.SearchStrategy[FaultSchedule]:
    """Correlated storms lowered to plain schedules, with and without
    bandwidth dips."""
    expanded = st.integers(0, 2**16).map(
        lambda s: domain_storm(
            DOMAIN_TOPOLOGY, DURATION_S, seed=s
        ).expand_to_schedule(DOMAIN_TOPOLOGY)
    )
    return st.one_of(expanded, st.integers(0, 2**16).map(zone_storm_under_dips))


class TestDomainChaos:
    @CHAOS
    @given(
        faults=correlated_schedules(),
        overload=overload_configs(),
        load_factor=st.floats(0.3, 6.0),
        seed=st.integers(0, 2**16),
    )
    def test_correlated_schedules_conserve_requests(
        self, faults, overload, load_factor, seed
    ):
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
            overload=overload,
            seed=seed,
        )
        result = router.run(
            offered_qps=load_factor * NUM_MACHINES / SERVICE_S,
            duration_s=DURATION_S,
            faults=faults,
            sla=SLA(deadline_s=25.0 * SERVICE_S),
        )
        assert result.unresolved >= 0
        assert result.offered == (
            result.completed + result.failed + result.unresolved
        )

    @CHAOS
    @given(
        storm_seed=st.integers(0, 2**16),
        replication_factor=st.integers(1, 3),
        num_shards=st.integers(1, 2),
        load_factor=st.floats(0.3, 4.0),
        seed=st.integers(0, 2**16),
    )
    def test_replicated_shard_recovery_books_balance(
        self,
        storm_seed,
        replication_factor,
        num_shards,
        load_factor,
        seed,
    ):
        """Whatever the storm, the recovery timeline stays consistent and
        the compiled schedule still conserves requests."""
        from repro.experiments.fig11z_domains import _compile_schedule

        events = domain_storm(DOMAIN_TOPOLOGY, DURATION_S, seed=storm_seed)
        plan = shard_tables(RMC1_SMALL, num_shards)
        replication = replicate_shards(
            plan, DOMAIN_TOPOLOGY, replication_factor
        )
        timeline = recovery_timeline(
            BROADWELL, RMC1_SMALL, replication, DOMAIN_TOPOLOGY, events
        )
        # Timeline books: transfers ordered, down-intervals disjoint,
        # segments tile the horizon.
        for transfer in timeline.transfers:
            assert transfer.lost_at_s <= transfer.start_s < transfer.done_s
        assert timeline.time_to_full_redundancy_s == max(
            (t.done_s for t in timeline.transfers), default=0.0
        )
        for per_copy in timeline.copy_down_intervals:
            for intervals in per_copy:
                for (a0, b0), (a1, _) in zip(intervals, intervals[1:]):
                    assert a0 < b0 <= a1
        horizon_s = max(
            (t.done_s for t in timeline.transfers), default=DURATION_S
        ) + DURATION_S
        segments = timeline.service_segments(horizon_s)
        assert segments[0].start_s == 0.0
        assert segments[-1].end_s == horizon_s
        for left, right in zip(segments, segments[1:]):
            assert left.end_s == right.start_s
        assert 0.0 <= timeline.blackout_s(horizon_s) <= horizon_s
        # The compiled schedule conserves requests like any other.
        schedule, blackout_s, failover_s, _, _ = _compile_schedule(
            events,
            DOMAIN_TOPOLOGY,
            timeline,
            DURATION_S,
            SERVICE_S,
            NetworkConfig(),
        )
        assert blackout_s >= 0.0 and failover_s >= 0.0
        result = ResilientRouter(
            BROADWELL,
            RMC1_SMALL,
            8,
            NUM_MACHINES,
            seed=seed,
        ).run(
            offered_qps=load_factor * NUM_MACHINES / SERVICE_S,
            duration_s=DURATION_S,
            faults=schedule,
            sla=SLA(deadline_s=25.0 * SERVICE_S),
        )
        assert result.offered == (
            result.completed + result.failed + result.unresolved
        )


MM_REPLICAS = (BROADWELL, SKYLAKE)
MM_MODELS = (RMC1_SMALL, RMC2_SMALL, RMC3_SMALL)


def multimodel_pools() -> st.SearchStrategy[MultiModelPool]:
    """Small heterogeneous pools; sometimes slot-starved to force swaps."""
    return st.builds(
        MultiModelPool,
        st.just(MM_REPLICAS),
        st.just(MM_MODELS),
        slots_per_replica=st.integers(1, 3),
        thrash_window_s=st.floats(0.01, 0.2),
    )


class TestMultiModelChaos:
    @CHAOS
    @given(
        pool=multimodel_pools(),
        load_factor=st.floats(0.3, 6.0),
        weight=st.floats(0.05, 0.95),
        seed=st.integers(0, 2**16),
    )
    def test_per_model_conservation(self, pool, load_factor, weight, seed):
        router = MultiModelRouter(pool, seed=seed)
        trace = flat_trace(
            DURATION_S,
            load_factor * len(MM_REPLICAS) / SERVICE_S,
            mix=(weight, 1.0 - weight, weight / 2),
            models=MM_MODELS,
            seed=seed,
        )
        result = router.run(DURATION_S, trace)
        # Per-model books: every offered request completes.
        assert result.completed_by_model == result.offered_by_model
        for i in range(len(MM_MODELS)):
            assert len(result.latencies_by_model[i]) == (
                result.completed_by_model[i]
            )
        pool.verify_occupancy()
        resident, loading, draining, slots = pool.occupancy()
        assert resident + loading + draining <= slots
