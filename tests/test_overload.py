"""Overload-protection layer: units, wiring, and the Figure 11y ladder."""

import math

import numpy as np
import pytest

from repro.config import RMC1_SMALL
from repro.hw import BROADWELL
from repro.obs.metrics import MetricsRegistry
from repro.serving import (
    SLA,
    AdmissionPolicy,
    BreakerPolicy,
    BrownoutPolicy,
    BrownoutTier,
    CircuitBreaker,
    CoDelController,
    DegradationPolicy,
    DiurnalLoadGenerator,
    FaultSchedule,
    LoadSpike,
    OverloadConfig,
    ResiliencePolicy,
    ResilientRouter,
    Straggler,
    default_brownout_tiers,
    truncate_lookups,
)
from repro.serving.overload import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BrownoutController,
    OverloadStats,
    SHED_QUEUE_FULL,
)

NUM_MACHINES = 4


def _service_s():
    return ResilientRouter(
        BROADWELL, RMC1_SMALL, 8, NUM_MACHINES, seed=0
    )._base_service_s


# ------------------------------------------------------------- policies


class TestAdmissionPolicy:
    def test_validates(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(queue_capacity=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(shed_policy="lifo")
        with pytest.raises(ValueError):
            AdmissionPolicy(deadline_s=-1.0)
        with pytest.raises(ValueError):
            AdmissionPolicy(codel_target_s=0.0)

    @pytest.mark.parametrize(
        "field, bad, good",
        [
            ("queue_capacity", 2.5, np.int64(4)),
            ("queue_capacity", True, np.int32(1)),
            ("deadline_s", math.nan, np.float64(0.01)),
            ("deadline_s", math.inf, 0.01),
            ("codel_target_s", math.nan, 0.01),
            ("codel_target_s", math.inf, 0.01),
            ("codel_interval_s", math.nan, 0.1),
            ("codel_interval_s", math.inf, 0.1),
        ],
        ids=str,
    )
    def test_rejects_non_integral_or_non_finite(self, field, bad, good):
        # A fractional capacity ran on the Python loop and raised a
        # TypeError in the kernel; nan and inf never shed.
        AdmissionPolicy(**{field: good})
        with pytest.raises(ValueError, match=field):
            AdmissionPolicy(**{field: bad})

    def test_make_codel(self):
        assert AdmissionPolicy().make_codel() is None
        codel = AdmissionPolicy(codel_target_s=0.01).make_codel()
        assert isinstance(codel, CoDelController)


class TestCoDel:
    def test_below_target_never_drops(self):
        codel = CoDelController(target_s=0.01, interval_s=0.1)
        for i in range(100):
            assert not codel.on_dequeue(0.005, 0.001 * i)
        assert codel.drop_count == 0

    def test_drops_after_sustained_excess(self):
        codel = CoDelController(target_s=0.01, interval_s=0.1)
        dropped = [
            codel.on_dequeue(0.05, 0.01 * i) for i in range(100)
        ]
        assert not dropped[0]  # grace interval before the first drop
        assert any(dropped)
        assert codel.drop_count >= 1

    def test_drop_rate_accelerates(self):
        # drop_next spacing shrinks like interval/sqrt(n) while above
        # target, so later drops come faster than earlier ones.
        codel = CoDelController(target_s=0.001, interval_s=0.1)
        times = [0.002 * i for i in range(1000)]
        drops = [t for t in times if codel.on_dequeue(0.05, t)]
        assert len(drops) >= 3
        gaps = np.diff(drops)
        assert gaps[-1] < gaps[0]

    def test_recovers_below_target(self):
        codel = CoDelController(target_s=0.01, interval_s=0.05)
        for i in range(50):
            codel.on_dequeue(0.05, 0.01 * i)
        assert codel.drop_count >= 1
        before = codel.drop_count
        assert not codel.on_dequeue(0.001, 1.0)  # back under target
        for i in range(10):
            assert not codel.on_dequeue(0.001, 1.0 + 0.01 * i)
        assert codel.drop_count == before


class TestCircuitBreaker:
    def policy(self, **kw):
        base = dict(
            failure_threshold=3,
            window_s=1.0,
            open_duration_s=2.0,
            half_open_probes=1,
        )
        base.update(kw)
        return BreakerPolicy(**base)

    def test_validates(self):
        with pytest.raises(ValueError):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerPolicy(window_s=0.0)

    @pytest.mark.parametrize(
        "field, bad, good",
        [
            ("failure_threshold", 2.5, np.int64(3)),
            ("failure_threshold", True, np.int32(2)),
            ("half_open_probes", 1.5, np.int64(2)),
            ("half_open_probes", True, np.int64(1)),
            ("window_s", math.nan, np.float64(0.5)),
            ("window_s", math.inf, 0.5),
            ("open_duration_s", math.nan, 1.0),
            ("open_duration_s", math.inf, 1.0),
        ],
        ids=str,
    )
    def test_rejects_non_integral_or_non_finite(self, field, bad, good):
        # A fractional threshold ran on the Python loop and raised a
        # TypeError in the kernel; a nan window or open time never expires.
        BreakerPolicy(**{field: good})
        with pytest.raises(ValueError, match=field):
            BreakerPolicy(**{field: bad})

    def test_trips_at_threshold_within_window(self):
        breaker = CircuitBreaker(self.policy())
        breaker.record_failure(0.0)
        breaker.record_failure(0.1)
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure(0.2)
        assert breaker.state == BREAKER_OPEN
        assert breaker.opens == 1
        assert not breaker.allows(0.3)

    def test_old_failures_age_out(self):
        breaker = CircuitBreaker(self.policy())
        breaker.record_failure(0.0)
        breaker.record_failure(0.1)
        breaker.record_failure(5.0)  # first two fell out of the window
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_probe_then_close(self):
        breaker = CircuitBreaker(self.policy())
        for t in (0.0, 0.1, 0.2):
            breaker.record_failure(t)
        assert not breaker.allows(1.0)
        assert breaker.allows(2.5)  # open_duration elapsed -> half-open
        assert breaker.state == BREAKER_HALF_OPEN
        breaker.note_probe()
        assert not breaker.allows(2.6)  # probe budget spent
        breaker.record_success(2.7)
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allows(2.8)

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(self.policy())
        for t in (0.0, 0.1, 0.2):
            breaker.record_failure(t)
        assert breaker.allows(2.5)
        breaker.note_probe()
        breaker.record_failure(2.6)
        assert breaker.state == BREAKER_OPEN
        assert breaker.opens == 2


class TestBrownout:
    def tiers(self):
        return default_brownout_tiers(RMC1_SMALL, lookup_caps=(8, 2))

    def test_default_tiers_validate_caps(self):
        with pytest.raises(ValueError):
            default_brownout_tiers(RMC1_SMALL, lookup_caps=(2, 8))
        with pytest.raises(ValueError):
            default_brownout_tiers(RMC1_SMALL, lookup_caps=())

    def test_policy_validates(self):
        with pytest.raises(ValueError):
            BrownoutPolicy(tiers=())
        with pytest.raises(ValueError):
            BrownoutPolicy(
                tiers=self.tiers(), step_up_depth=1.0, step_down_depth=2.0
            )

    @pytest.mark.parametrize(
        "field, bad, good", [("dwell_s", math.nan, math.inf)], ids=str
    )
    def test_policy_rejects_nan(self, field, bad, good):
        # A nan dwell was never enforced; an infinite one holds the first
        # switch for the rest of the run.
        BrownoutPolicy(tiers=self.tiers(), **{field: good})
        with pytest.raises(ValueError, match=field):
            BrownoutPolicy(tiers=self.tiers(), **{field: bad})

    @pytest.mark.parametrize(
        "make",
        [
            lambda cap: BrownoutTier("t", max_lookups_per_table=cap),
            lambda cap: DegradationPolicy(max_lookups_per_table=cap),
            lambda cap: truncate_lookups(RMC1_SMALL, cap),
        ],
        ids=["BrownoutTier", "DegradationPolicy", "truncate_lookups"],
    )
    @pytest.mark.parametrize("cap", [2.5, True], ids=str)
    def test_lookup_cap_must_be_an_integer(self, make, cap):
        # A 2.5 cap built a config with 2.5 lookups per sample.
        make(np.int64(2))
        with pytest.raises(ValueError, match="max_lookups_per_table"):
            make(cap)

    def test_steps_up_under_pressure_and_back_down(self):
        policy = BrownoutPolicy(
            tiers=self.tiers(),
            step_up_depth=4.0,
            step_down_depth=1.0,
            dwell_s=0.1,
        )
        ctl = BrownoutController(policy)
        assert ctl.update(0.0, 10.0) == 1  # one step per update
        assert ctl.update(0.05, 10.0) == 1  # dwell blocks the second
        assert ctl.update(0.2, 10.0) == 2
        assert ctl.update(0.4, 10.0) == 2  # already at the deepest tier
        assert ctl.update(0.6, 0.5) == 1  # recovery steps back
        assert ctl.update(0.8, 0.5) == 0
        assert ctl.switches == 4

    def test_hysteresis_band_holds_tier(self):
        policy = BrownoutPolicy(
            tiers=self.tiers(),
            step_up_depth=4.0,
            step_down_depth=1.0,
            dwell_s=0.0,
        )
        ctl = BrownoutController(policy)
        ctl.update(0.0, 10.0)
        # Pressure between the thresholds: neither up nor down.
        assert ctl.update(1.0, 2.0) == 1
        assert ctl.update(2.0, 2.0) == 1

    def test_time_accounting_covers_horizon(self):
        policy = BrownoutPolicy(tiers=self.tiers(), dwell_s=0.0)
        ctl = BrownoutController(policy)
        ctl.update(0.2, 10.0)
        ctl.update(0.5, 0.0)
        ctl.finish(1.0)
        assert len(ctl.time_in_tier_s) == policy.num_tiers
        assert sum(ctl.time_in_tier_s) == pytest.approx(1.0)
        assert ctl.time_in_tier_s[1] == pytest.approx(0.3)


class TestOverloadConfig:
    def test_noop_detection(self):
        assert OverloadConfig().is_noop
        assert not OverloadConfig(admission=AdmissionPolicy()).is_noop

    def test_stats_shed_sums_reasons(self):
        stats = OverloadStats()
        stats.count_shed(SHED_QUEUE_FULL)
        stats.count_shed(SHED_QUEUE_FULL)
        stats.count_shed("deadline_hopeless")
        assert stats.shed == 3
        assert stats.shed_by_reason[SHED_QUEUE_FULL] == 2


# ----------------------------------------------------- router wiring


class TestResilientRouterOverload:
    def run_router(self, overload, policy=None, qps_factor=4.0, seed=7):
        svc = _service_s()
        router = ResilientRouter(
            BROADWELL,
            RMC1_SMALL,
            8,
            NUM_MACHINES,
            policy=policy,
            overload=overload,
            seed=seed,
        )
        return router.run(
            offered_qps=qps_factor * NUM_MACHINES / svc,
            duration_s=0.1,
            sla=SLA(deadline_s=25.0 * svc),
        )

    def test_admission_bounds_queue_and_latency(self):
        svc = _service_s()
        overload = OverloadConfig(
            admission=AdmissionPolicy(queue_capacity=8)
        )
        result = self.run_router(overload)
        stats = result.overload
        assert stats is not None
        assert stats.max_queue_depth <= 8
        assert stats.shed > 0
        # Bounded queue -> bounded latency: every completion waited at
        # most ~capacity * service behind the head plus noise/straggle.
        assert float(result.latencies_s.max()) < 50.0 * svc

    def test_unprotected_latency_grows_unbounded(self):
        result = self.run_router(None)
        svc = _service_s()
        assert result.overload is None
        # 4x overload for 0.1 s: the queue grows throughout the run, so
        # the worst latency is within a small factor of the horizon.
        assert float(result.latencies_s.max()) > 1000.0 * svc

    def test_reject_oldest_sheds_head_not_tail(self):
        overload = OverloadConfig(
            admission=AdmissionPolicy(
                queue_capacity=4, shed_policy="reject_oldest"
            )
        )
        result = self.run_router(overload)
        stats = result.overload
        assert stats.shed_by_reason.get("oldest_dropped", 0) > 0
        assert stats.shed_by_reason.get("queue_full", 0) == 0

    def test_deadline_aware_sheds_hopeless_work(self):
        svc = _service_s()
        overload = OverloadConfig(
            admission=AdmissionPolicy(
                queue_capacity=64,
                shed_policy="deadline_aware",
                deadline_s=10.0 * svc,
            )
        )
        result = self.run_router(overload)
        assert result.overload.shed_by_reason.get("deadline_hopeless", 0) > 0

    def test_codel_sheds_on_standing_queue(self):
        svc = _service_s()
        overload = OverloadConfig(
            admission=AdmissionPolicy(
                queue_capacity=64,
                codel_target_s=3.0 * svc,
                codel_interval_s=20.0 * svc,
            )
        )
        result = self.run_router(overload)
        assert result.overload.shed_by_reason.get("codel_sojourn", 0) > 0

    def test_breaker_opens_on_straggler_timeouts(self):
        svc = _service_s()
        overload = OverloadConfig(
            admission=AdmissionPolicy(queue_capacity=16),
            breaker=BreakerPolicy(
                failure_threshold=3,
                window_s=50.0 * svc,
                open_duration_s=100.0 * svc,
            ),
        )
        policy = ResiliencePolicy(
            timeout_s=20.0 * svc, max_retries=1, backoff_base_s=svc
        )
        storm = FaultSchedule(
            stragglers=(
                Straggler(
                    replica_id=0, start_s=0.0, duration_s=0.1, slowdown=20.0
                ),
            )
        )
        router = ResilientRouter(
            BROADWELL,
            RMC1_SMALL,
            8,
            NUM_MACHINES,
            policy=policy,
            overload=overload,
            seed=7,
        )
        result = router.run(
            offered_qps=0.7 * NUM_MACHINES / svc,
            duration_s=0.1,
            faults=storm,
            sla=SLA(deadline_s=25.0 * svc),
        )
        assert result.overload.breaker_opens > 0

    def test_brownout_steps_and_accounts_time(self):
        svc = _service_s()
        overload = OverloadConfig(
            admission=AdmissionPolicy(queue_capacity=16),
            brownout=BrownoutPolicy(
                tiers=default_brownout_tiers(RMC1_SMALL),
                step_up_depth=4.0,
                step_down_depth=1.0,
                dwell_s=10.0 * svc,
            ),
        )
        result = self.run_router(overload)
        stats = result.overload
        assert stats.max_brownout_tier > 0
        assert stats.brownout_switches > 0
        assert sum(stats.time_in_tier_s) == pytest.approx(0.1)
        assert stats.time_degraded_s > 0
        assert sum(stats.completions_by_tier) == len(result.latencies_s)
        assert result.brownout_quality is not None
        for quality in result.brownout_quality:
            assert 0.0 < quality["recall_at_k"] <= 1.0

    def test_protected_run_is_deterministic(self):
        svc = _service_s()
        overload = OverloadConfig(
            admission=AdmissionPolicy(
                queue_capacity=8, codel_target_s=5.0 * svc
            ),
            breaker=BreakerPolicy(
                failure_threshold=3,
                window_s=20.0 * svc,
                open_duration_s=50.0 * svc,
            ),
            brownout=BrownoutPolicy(
                tiers=default_brownout_tiers(RMC1_SMALL),
                dwell_s=10.0 * svc,
            ),
        )
        policy = ResiliencePolicy(
            timeout_s=30.0 * svc, max_retries=1, backoff_base_s=svc
        )
        a = self.run_router(overload, policy=policy)
        b = self.run_router(overload, policy=policy)
        np.testing.assert_array_equal(a.latencies_s, b.latencies_s)
        assert a.overload.shed_by_reason == b.overload.shed_by_reason
        assert a.overload.max_queue_depth == b.overload.max_queue_depth

    def test_overload_none_matches_router_without_overload_arg(self):
        svc = _service_s()
        kwargs = dict(offered_qps=2.0 * NUM_MACHINES / svc, duration_s=0.1)
        with_none = ResilientRouter(
            BROADWELL, RMC1_SMALL, 8, NUM_MACHINES, seed=3, overload=None
        ).run(**kwargs)
        without = ResilientRouter(
            BROADWELL, RMC1_SMALL, 8, NUM_MACHINES, seed=3
        ).run(**kwargs)
        np.testing.assert_array_equal(
            with_none.latencies_s, without.latencies_s
        )

    def test_request_conservation(self):
        svc = _service_s()
        overload = OverloadConfig(
            admission=AdmissionPolicy(queue_capacity=8)
        )
        result = self.run_router(overload)
        assert result.offered == (
            result.completed + result.failed + result.unresolved
        )
        assert result.unresolved >= 0

    def test_explicit_arrival_trace(self):
        svc = _service_s()
        times = [0.001 * i for i in range(50)]
        router = ResilientRouter(BROADWELL, RMC1_SMALL, 8, NUM_MACHINES, seed=3)
        result = router.run(
            offered_qps=1000.0,
            duration_s=0.1,
            arrival_times_s=times,
            sla=SLA(deadline_s=25.0 * svc),
        )
        assert result.offered == 50
        with pytest.raises(ValueError):
            router.run(
                offered_qps=1000.0, duration_s=0.1, arrival_times_s=[0.2]
            )

    def test_metrics_recorded(self):
        registry = MetricsRegistry()
        svc = _service_s()
        router = ResilientRouter(
            BROADWELL,
            RMC1_SMALL,
            8,
            NUM_MACHINES,
            overload=OverloadConfig(
                admission=AdmissionPolicy(queue_capacity=8)
            ),
            seed=7,
            metrics=registry,
        )
        router.run(
            offered_qps=4.0 * NUM_MACHINES / svc,
            duration_s=0.05,
            sla=SLA(deadline_s=25.0 * svc),
        )
        snapshot = registry.snapshot()
        assert any(
            key.startswith("serving.overload.shed")
            for key in snapshot.counters
        )
        assert "serving.queue.max_depth" in snapshot.gauges


# ------------------------------------------------------------ loadgen


class TestDiurnalLoadGenerator:
    def test_rate_oscillates_around_mean(self):
        gen = DiurnalLoadGenerator(
            mean_qps=1000.0, amplitude=0.5, period_s=1.0
        )
        assert gen.rate_at(0.25) == pytest.approx(1500.0)
        assert gen.rate_at(0.75) == pytest.approx(500.0)
        assert gen.max_rate_qps() == pytest.approx(1500.0)

    def test_seeded_and_deterministic(self):
        a = DiurnalLoadGenerator(1000.0, seed=4).generate(0.5)
        b = DiurnalLoadGenerator(1000.0, seed=4).generate(0.5)
        assert [q.arrival_s for q in a] == [q.arrival_s for q in b]
        assert a, "expected a non-empty stream"

    def test_composes_with_spikes(self):
        spike = LoadSpike(start_s=0.2, duration_s=0.2, multiplier=5.0)
        gen = DiurnalLoadGenerator(
            2000.0,
            amplitude=0.25,
            period_s=1.0,
            spikes=(spike,),
            seed=4,
        )
        assert gen.rate_at(0.3) > 4.0 * gen.rate_at(0.1)
        queries = gen.generate(1.0)
        in_spike = sum(1 for q in queries if 0.2 <= q.arrival_s < 0.4)
        outside = len(queries) - in_spike
        assert in_spike > outside  # 20% of the horizon, most of the load

    def test_validates(self):
        with pytest.raises(ValueError):
            DiurnalLoadGenerator(0.0)
        with pytest.raises(ValueError):
            DiurnalLoadGenerator(100.0, amplitude=1.5)
        with pytest.raises(ValueError):
            DiurnalLoadGenerator(100.0, period_s=0.0)


# ------------------------------------------------------ figure 11y


class TestFigure11yLadder:
    """The acceptance-criterion assertion: under a 5x seeded flash crowd
    the full protection stack keeps goodput near capacity with bounded
    p99 while the unprotected baseline collapses."""

    def test_ladder(self):
        from repro.experiments import fig11y_overload

        result = fig11y_overload.run(duration_s=0.4)
        none = result.outcomes["none"]
        full = result.outcomes["admission+breaker+brownout"]
        # Full stack: goodput >= 80% of capacity, p99 within the SLA.
        assert result.goodput_fraction("admission+breaker+brownout") >= 0.8
        assert full.summary.p99 <= result.sla_deadline_s
        # Unprotected: p99 grows without bound (a sizeable fraction of
        # the horizon — queueing, not service) and goodput collapses.
        assert none.summary.p99 > 0.25 * result.duration_s
        assert none.summary.p99 > 100.0 * full.summary.p99
        assert result.goodput_fraction("none") < 0.5
        # Ladder is monotone in goodput.
        ladder = fig11y_overload.POLICY_LADDER
        goodputs = [result.goodput_fraction(name) for name in ladder]
        assert goodputs == sorted(goodputs)
        # Brownout engaged and reported its quality cost.
        assert full.overload.max_brownout_tier > 0
        assert full.brownout_quality is not None
        assert all(
            q["recall_at_k"] < 1.0 or q["ndcg_at_k"] <= 1.0
            for q in full.brownout_quality
        )
        rendered = fig11y_overload.render(result)
        assert "brownout tier" in rendered
