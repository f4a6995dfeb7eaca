"""Multi-model pool and router: unit tests plus slot-accounting properties.

The property suite drives random mixed-traffic runs through an audited
pool subclass that re-verifies the residency books at every state
transition: occupancy conservation (resident + loading + draining <=
slots, incremental counters match a fresh slot scan), swap determinism
under a fixed seed, and the drain guard's core promise — a slot is never
dispatched a model other than the one resident in it.
"""

import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config.presets import RMC1_SMALL, RMC2_SMALL, RMC3_SMALL
from repro.hw.server import BROADWELL, SKYLAKE
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.serving import (
    AdmissionPolicy,
    BreakerPolicy,
    ContentionLevels,
    MixedModelLoadGenerator,
    MixedQuery,
    ModelClassRate,
    MultiModelPool,
    MultiModelRouter,
    OverloadConfig,
    ResilientRouter,
    ServingSimulator,
    fault_storm,
)
from repro.serving.loadgen import _diurnal_envelope, _diurnal_rate

REPLICAS = (BROADWELL, SKYLAKE)
MODELS = (RMC1_SMALL, RMC2_SMALL, RMC3_SMALL)

PROPERTY = settings(
    max_examples=int(os.environ.get("CHAOS_EXAMPLES", "15")),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def flat_trace(
    duration_s, offered_qps, mix=(1.0, 1.0, 1.0), models=MODELS, seed=0
):
    """Poisson arrivals at ``offered_qps``, split over ``models`` by ``mix``.

    Each class is a flat (amplitude-0) stream at its weight's share of the
    rate; a zero-weight class is left out.
    """
    total = sum(mix)
    classes = tuple(
        ModelClassRate(
            config.name, offered_qps * weight / total, amplitude=0.0
        )
        for config, weight in zip(models, mix)
        if weight > 0
    )
    return MixedModelLoadGenerator(classes, seed=seed).generate(duration_s)


def make_pool(**kwargs) -> MultiModelPool:
    kwargs.setdefault("slots_per_replica", 2)
    kwargs.setdefault("thrash_window_s", 0.05)
    return MultiModelPool(REPLICAS, MODELS, **kwargs)


class AuditedPool(MultiModelPool):
    """Pool that re-verifies the occupancy books at every transition.

    ``_integrate`` runs before every state mutation, so hooking it audits
    the counters exactly when they must be consistent. ``begin_service``
    additionally records that the drain guard only ever admits a
    matching, idle, resident slot.
    """

    def _integrate(self, now_s: float) -> None:
        super()._integrate(now_s)
        self.verify_occupancy()
        resident, loading, draining, slots = self.occupancy()
        assert resident + loading + draining <= slots

    def begin_service(self, replica, idx, model, now_s) -> None:
        s = self.slot(replica, idx)
        assert s.model == model and not s.busy and not s.draining
        super().begin_service(replica, idx, model, now_s)


class TestPoolConstruction:
    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError):
            MultiModelPool((), MODELS)
        with pytest.raises(ValueError):
            MultiModelPool(REPLICAS, ())

    def test_rejects_duplicate_model_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            MultiModelPool(REPLICAS, (RMC1_SMALL, RMC1_SMALL))

    def test_rejects_model_that_needs_sharding(self):
        # At 1% headroom RMC2's 5.12 GB of tables no longer fits a
        # replica whole, so the residency pool must refuse it.
        with pytest.raises(ValueError, match="shards"):
            MultiModelPool(REPLICAS, (RMC2_SMALL,), dram_headroom=0.01)

    def test_rejects_bad_headroom(self):
        with pytest.raises(ValueError, match="dram_headroom"):
            MultiModelPool(REPLICAS, MODELS, dram_headroom=-0.5)
        with pytest.raises(ValueError, match="dram_headroom"):
            MultiModelPool(REPLICAS, MODELS, dram_headroom=1.5)

    def test_rejects_bad_slot_counts(self):
        with pytest.raises(ValueError, match="positive"):
            make_pool(slots_per_replica=0)
        with pytest.raises(ValueError, match="capacity"):
            make_pool(slots_per_replica=10_000)

    def test_rejects_bad_thrash_window(self):
        with pytest.raises(ValueError, match="thrash"):
            make_pool(thrash_window_s=0.0)

    @pytest.mark.parametrize(
        "field, bad, good",
        [
            ("slots_per_replica", 2.5, np.int64(2)),
            ("slots_per_replica", True, np.int32(1)),
            ("thrash_window_s", math.nan, np.float64(0.05)),
        ],
        ids=str,
    )
    def test_rejects_non_integral_or_non_finite(self, field, bad, good):
        # 2.5 slots raised a TypeError, True built one slot, and a nan
        # window never counted a thrash.
        make_pool(**{field: good})
        with pytest.raises(ValueError, match=field):
            make_pool(**{field: bad})

    def test_slots_derived_from_capacity(self):
        pool = MultiModelPool(REPLICAS, MODELS)
        # Uniform slots sized to the largest model (RMC2's tables).
        assert pool.slot_bytes == RMC2_SMALL.embedding_storage_bytes()
        budget = int(BROADWELL.dram_capacity_bytes * 0.8)
        assert pool.num_slots[0] == budget // pool.slot_bytes
        assert pool.total_slots == sum(pool.num_slots)

    def test_swap_cost_is_tables_at_dram_bandwidth(self):
        pool = make_pool()
        for r, spec in enumerate(REPLICAS):
            for m, config in enumerate(MODELS):
                expected = (
                    config.embedding_storage_bytes() / spec.dram_bw_bytes_per_s
                )
                assert pool.swap_base_s[r][m] == pytest.approx(expected)


class TestPoolTransitions:
    """The pool calls the router makes.

    A hit is ``idle_resident_slot`` then ``begin_service``, a load is
    ``acquire_for_load``, and a drain is ``claim_drain`` then
    ``start_pending_load``.
    """

    def test_load_then_hit_then_release(self):
        pool = make_pool()
        assert pool.idle_resident_slot(0, 0) == -1
        start = pool.acquire_for_load(0, 0, 0.0)
        assert start.swap_base_s == pool.swap_base_s[0][0]
        pool.finish_load(0, start.slot, 0.001)
        idx = pool.idle_resident_slot(0, 0)
        assert idx == start.slot
        pool.begin_service(0, idx, 0, 0.002)
        pool.release(0, idx, 0.003)
        pool.verify_occupancy()

    def test_acquire_refuses_when_all_slots_busy(self):
        pool = make_pool()
        for m in (0, 1):
            idx = pool.acquire_for_load(0, m, 0.0).slot
            pool.finish_load(0, idx, 0.001)
            pool.begin_service(0, idx, m, 0.002)
        # Both slots busy with models 0/1: model 2 gets nothing.
        assert pool.idle_resident_slot(0, 2) == -1
        assert pool.acquire_for_load(0, 2, 0.003) is None

    def test_lru_eviction_counts_swap_and_thrash(self):
        pool = make_pool(thrash_window_s=10.0)
        for m in (0, 1):
            idx = pool.acquire_for_load(0, m, 0.0).slot
            pool.finish_load(0, idx, 0.001 + m * 0.001)
        # Slots full but idle: loading model 2 evicts the LRU (model 0),
        # and well inside the thrash window.
        assert pool.idle_resident_slot(0, 2) == -1
        start = pool.acquire_for_load(0, 2, 0.01)
        assert start.swap_base_s == pool.swap_base_s[0][2]
        assert (start.evicted_model, start.thrash) == (0, True)
        assert (pool.swaps, pool.thrash) == (1, 1)
        assert pool.swaps_by_model[2] == 1

    def test_drain_guard_rejects_mismatched_dispatch(self):
        pool = make_pool()
        idx = pool.acquire_for_load(0, 0, 0.0).slot
        pool.finish_load(0, idx, 0.001)
        with pytest.raises(RuntimeError, match="drain guard"):
            pool.begin_service(0, idx, 1, 0.002)

    def test_drain_guard_rejects_busy_and_draining_slots(self):
        pool = make_pool()
        idx = pool.acquire_for_load(0, 0, 0.0).slot
        pool.finish_load(0, idx, 0.001)
        pool.begin_service(0, idx, 0, 0.002)
        with pytest.raises(RuntimeError, match="drain guard"):
            pool.begin_service(0, idx, 0, 0.003)
        assert pool.claim_drain(0, 1, 0.004) == idx
        pool.release(0, idx, 0.005)
        start = pool.start_pending_load(0, idx, 0.005)
        assert start.evicted_model == 0
        with pytest.raises(RuntimeError, match="drain guard"):
            pool.begin_service(0, idx, 1, 0.006)  # still loading
        pool.finish_load(0, idx, 0.01)
        pool.begin_service(0, idx, 1, 0.011)
        pool.verify_occupancy()

    def test_claim_drain_needs_a_busy_mismatch(self):
        pool = make_pool()
        assert pool.claim_drain(0, 1, 0.0) == -1
        idx = pool.acquire_for_load(0, 1, 0.0).slot
        pool.finish_load(0, idx, 0.001)
        pool.begin_service(0, idx, 1, 0.002)
        assert pool.claim_drain(0, 1, 0.003) == -1  # already the model
        assert pool.claim_drain(0, 0, 0.003) == idx
        assert pool.claim_drain(0, 0, 0.004) == -1  # already claimed

    def test_start_pending_load_requires_drained_claim(self):
        pool = make_pool()
        with pytest.raises(RuntimeError, match="claim"):
            pool.start_pending_load(0, 0, 0.0)

    def test_crash_clears_residency(self):
        pool = make_pool()
        idx = pool.acquire_for_load(0, 0, 0.0).slot
        pool.finish_load(0, idx, 0.001)
        pool.begin_service(0, idx, 0, 0.002)
        pool.crash(0, 0.003)
        pool.verify_occupancy()
        assert pool.occupancy(0) == (0, 0, 0, 2)

    def test_occupancy_time_integral(self):
        pool = make_pool()
        idx = pool.acquire_for_load(0, 0, 0.0).slot
        pool.finish_load(0, idx, 1.0)
        pool.finalize(3.0)
        assert pool.loading_slot_s == pytest.approx(1.0)
        assert pool.resident_slot_s == pytest.approx(2.0)
        assert pool.residency_utilization(3.0) == pytest.approx(
            2.0 / (pool.total_slots * 3.0)
        )
        with pytest.raises(ValueError):
            pool.residency_utilization(0.0)


class TestRouterValidation:
    def test_rejects_breaker_and_brownout(self):
        with pytest.raises(ValueError, match="admission control"):
            MultiModelRouter(
                make_pool(),
                overload=OverloadConfig(
                    breaker=BreakerPolicy(
                        failure_threshold=3,
                        window_s=1.0,
                        open_duration_s=1.0,
                    )
                ),
            )

    def test_rejects_bad_parameters(self):
        pool = make_pool()
        with pytest.raises(ValueError, match="batch_size"):
            MultiModelRouter(pool, batch_size=0)
        with pytest.raises(ValueError, match="hol_skip_cap"):
            MultiModelRouter(pool, hol_skip_cap=-1)
        with pytest.raises(ValueError, match="hol_scan_window"):
            MultiModelRouter(pool, hol_scan_window=0)

    @pytest.mark.parametrize(
        "field, bad, good",
        [
            ("batch_size", 2.5, np.int64(8)),
            ("batch_size", True, np.int32(4)),
            ("hol_skip_cap", 1.5, np.int64(0)),
            ("hol_skip_cap", True, np.int64(2)),
            ("hol_scan_window", 2.5, np.int64(4)),
            ("hol_scan_window", True, np.int64(1)),
        ],
        ids=str,
    )
    def test_rejects_non_integral_parameters(self, field, bad, good):
        # A fractional batch priced a fractional inference, and a
        # fractional scan window constructed, then raised a TypeError in
        # run().
        pool = make_pool()
        MultiModelRouter(pool, **{field: good}).run(
            0.01, flat_trace(0.01, 1000.0)
        )
        with pytest.raises(ValueError, match=field):
            MultiModelRouter(pool, **{field: bad})

    @pytest.mark.parametrize("bad", [0.0, math.inf, math.nan])
    @pytest.mark.parametrize("field", ["duration_s"])
    def test_rejects_non_finite_rate_and_duration(self, field, bad):
        # Before the finiteness check, an infinite horizon looped forever.
        with pytest.raises(ValueError, match="must be positive"):
            MultiModelRouter(make_pool()).run(**{field: bad, "queries": []})

    def test_trace_is_the_only_arrival_source(self):
        with pytest.raises(TypeError):
            MultiModelRouter(make_pool()).run(0.1, offered_qps=100.0)

    def test_query_validation(self):
        router = MultiModelRouter(make_pool())
        bad = [MixedQuery(0, 0.01, 1, model="nope")]
        with pytest.raises(ValueError, match="not in pool"):
            router.run(0.1, bad)
        unsorted = [
            MixedQuery(0, 0.02, 1, model=RMC1_SMALL.name),
            MixedQuery(1, 0.01, 1, model=RMC1_SMALL.name),
        ]
        with pytest.raises(ValueError, match="sorted"):
            router.run(0.1, unsorted)


class TestRouterRuns:
    def test_conservation_and_summary(self):
        router = MultiModelRouter(make_pool(), seed=3)
        result = router.run(
            0.1, flat_trace(0.1, 3000.0, mix=(0.5, 0.3, 0.2), seed=3)
        )
        for i in range(len(MODELS)):
            assert result.offered_by_model[i] == (
                result.completed_by_model[i]
                + result.shed_by_model[i]
                + result.killed_by_model[i]
            )
        assert result.offered == sum(result.offered_by_model)
        assert result.throughput_qps == result.completed / result.duration_s
        assert len(result.latencies_s()) == result.completed
        summary = result.summary()
        assert summary["per_model"][RMC1_SMALL.name]["offered"] > 0
        assert 0.0 <= result.residency_utilization <= 1.0

    def test_rerun_is_deterministic(self):
        router = MultiModelRouter(make_pool(), seed=5)
        trace = flat_trace(0.05, 2000.0, seed=5)
        first = router.run(0.05, trace)
        second = router.run(0.05, trace)
        assert first.latencies_by_model == second.latencies_by_model
        assert first.summary() == second.summary()

    def test_crash_kills_and_cold_restarts(self):
        storm = fault_storm(len(REPLICAS), 0.1, seed=12)
        router = MultiModelRouter(make_pool(), seed=7)
        result = router.run(0.1, flat_trace(0.1, 4000.0, seed=7), faults=storm)
        assert result.offered == (
            result.completed + result.shed + result.killed
        )

    def test_admission_sheds(self):
        overload = OverloadConfig(
            admission=AdmissionPolicy(queue_capacity=2, shed_policy="reject_newest")
        )
        router = MultiModelRouter(make_pool(), overload=overload, seed=9)
        result = router.run(0.05, flat_trace(0.05, 20_000.0, seed=9))
        assert result.shed > 0
        assert result.overload is not None
        assert result.overload.offered == result.offered
        assert result.overload.admitted + result.overload.shed == result.offered

    def test_loadgen_and_trace_paths(self):
        classes = (
            ModelClassRate(RMC1_SMALL.name, 1500.0),
            ModelClassRate(RMC2_SMALL.name, 800.0, phase_s=0.05),
            ModelClassRate(RMC3_SMALL.name, 500.0, amplitude=0.2),
        )
        load = MixedModelLoadGenerator(classes, period_s=0.1, seed=11)
        tracer = Tracer()
        metrics = MetricsRegistry()
        router = MultiModelRouter(
            make_pool(), seed=11, tracer=tracer, metrics=metrics
        )
        queries = load.generate(0.1)
        result = router.run(0.1, queries)
        assert result.offered == len(queries)
        names = {span.name for span in tracer.spans}
        assert "serving.multimodel.request" in names
        assert "serving.multimodel.swap" in names
        snap = metrics.snapshot()
        assert snap.counters["serving.multimodel.loads"] == result.loads
        assert snap.gauges["serving.multimodel.residency"] == pytest.approx(
            result.residency_utilization
        )


class TestMixedLoadgen:
    CLASSES = (
        ModelClassRate("a", 1000.0),
        ModelClassRate("b", 500.0, amplitude=0.3, phase_s=0.02),
    )

    def test_query_needs_model(self):
        with pytest.raises(ValueError, match="model"):
            MixedQuery(0, 0.0, 1)

    def test_class_validation(self):
        with pytest.raises(ValueError, match="name"):
            ModelClassRate("", 10.0)
        with pytest.raises(ValueError, match="rate"):
            ModelClassRate("a", 0.0)
        with pytest.raises(ValueError, match="amplitude"):
            ModelClassRate("a", 10.0, amplitude=1.5)

    def test_generator_validation(self):
        with pytest.raises(ValueError, match="class"):
            MixedModelLoadGenerator(())
        with pytest.raises(ValueError, match="duplicate"):
            MixedModelLoadGenerator(
                (ModelClassRate("a", 1.0), ModelClassRate("a", 2.0))
            )
        with pytest.raises(ValueError, match="period"):
            MixedModelLoadGenerator(self.CLASSES, period_s=0.0)
        with pytest.raises(ValueError, match="num_items"):
            MixedModelLoadGenerator(self.CLASSES, num_items=0)

    def test_generate_is_repeatable_and_sorted(self):
        gen = MixedModelLoadGenerator(self.CLASSES, period_s=0.1, seed=4)
        first = gen.generate(0.1)
        second = gen.generate(0.1)
        assert first == second
        times = [q.arrival_s for q in first]
        assert times == sorted(times)
        assert [q.query_id for q in first] == list(range(len(first)))

    def test_substreams_partition_the_merged_trace(self):
        # Split by model, the merged trace gives each class the arrivals
        # it draws whatever the other classes' rates: its own substream.
        def split(classes):
            trace = MixedModelLoadGenerator(
                classes, period_s=0.1, seed=4
            ).generate(0.1)
            return [
                [q.arrival_s for q in trace if q.model == cls.name]
                for cls in classes
            ]

        a, b = split(self.CLASSES)
        assert a and b
        assert split((self.CLASSES[0], ModelClassRate("b", 10.0)))[0] == a
        assert split((ModelClassRate("a", 10.0), self.CLASSES[1]))[1] == b

    def test_diurnal_rate_shape(self):
        # Every class prices its rate through the shared diurnal formula.
        cls = self.CLASSES[0]
        shape = (cls.mean_qps, cls.amplitude, 0.1, cls.phase_s)
        assert _diurnal_rate(0.025, *shape) == pytest.approx(1500.0)  # peak
        assert _diurnal_rate(0.075, *shape) == pytest.approx(500.0)  # trough
        assert _diurnal_envelope(cls.mean_qps, cls.amplitude) == pytest.approx(
            1500.0
        )


def test_single_model_layers_take_no_pool():
    # Cross-model dispatch lives only in MultiModelRouter.
    pool = make_pool()
    with pytest.raises(TypeError):
        ServingSimulator(ContentionLevels(BROADWELL, RMC1_SMALL, 8), 2, pool=pool)
    with pytest.raises(TypeError):
        ResilientRouter(BROADWELL, RMC1_SMALL, 8, 2, pool=pool)


class TestSlotAccountingProperties:
    """The satellite property suite over the audited pool."""

    @PROPERTY
    @given(
        seed=st.integers(0, 2**16),
        offered_qps=st.floats(500.0, 8000.0),
        weight=st.floats(0.1, 0.9),
        with_faults=st.booleans(),
    )
    def test_occupancy_conservation(
        self, seed, offered_qps, weight, with_faults
    ):
        pool = AuditedPool(
            REPLICAS, MODELS, slots_per_replica=2, thrash_window_s=0.05
        )
        router = MultiModelRouter(pool, seed=seed)
        faults = (
            fault_storm(len(REPLICAS), 0.05, seed=seed + 1)
            if with_faults
            else None
        )
        trace = flat_trace(
            0.05, offered_qps, mix=(weight, 1.0 - weight, weight / 2), seed=seed
        )
        result = router.run(0.05, trace, faults=faults)
        pool.verify_occupancy()
        assert result.offered == result.completed + result.shed + result.killed

    @PROPERTY
    @given(seed=st.integers(0, 2**16))
    def test_swap_determinism_under_fixed_seed(self, seed):
        runs = [
            MultiModelRouter(make_pool(), seed=seed).run(
                0.05, flat_trace(0.05, 4000.0, seed=seed)
            )
            for _ in range(2)
        ]
        assert runs[0].swaps == runs[1].swaps
        assert runs[0].loads == runs[1].loads
        assert runs[0].thrash == runs[1].thrash
        assert runs[0].latencies_by_model == runs[1].latencies_by_model

    @PROPERTY
    @given(
        seed=st.integers(0, 2**16),
        offered_qps=st.floats(1000.0, 10_000.0),
    )
    def test_drain_guard_never_dispatches_mismatch(self, seed, offered_qps):
        # AuditedPool.begin_service asserts slot.model == model before
        # every dispatch; a single-slot pool maximizes swap pressure.
        pool = AuditedPool(
            REPLICAS, MODELS, slots_per_replica=1, thrash_window_s=0.05
        )
        router = MultiModelRouter(pool, seed=seed)
        result = router.run(0.05, flat_trace(0.05, offered_qps, seed=seed))
        assert result.swaps >= 0
