"""Tests for SLA metrics, load generation and batching, and the input
checks of the serving constructors that take counts and times."""

import math
import re

import numpy as np
import pytest

from repro.config import RMC1_SMALL, scaled_for_execution
from repro.core import RecommendationModel
from repro.hw import BROADWELL
from repro.serving import (
    BatchedServer,
    Batcher,
    DegradationPolicy,
    DiurnalLoadGenerator,
    FilterRankPipeline,
    FleetTopology,
    LoadSpike,
    MixedModelLoadGenerator,
    MixedQuery,
    ModelClassRate,
    PoissonLoadGenerator,
    Query,
    ResiliencePolicy,
    ResilientRouter,
    SLA,
    ThroughputPoint,
    batch_stream,
    domain_storm,
    fault_storm,
    latency_bounded_throughput,
    poisson_arrival_times,
)


class TestSLA:
    def test_met_when_under_deadline(self):
        assert SLA(0.1, percentile=0.99).is_met([0.01] * 100)

    def test_violated_by_tail(self):
        latencies = [0.01] * 90 + [1.0] * 10
        assert not SLA(0.1, percentile=0.99).is_met(latencies)
        assert SLA(0.1, percentile=0.50).is_met(latencies)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            SLA(0.0)
        with pytest.raises(ValueError):
            SLA(0.1, percentile=0.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SLA(0.1).is_met([])


class TestLatencyBoundedThroughput:
    def test_picks_highest_feasible(self):
        points = [
            ThroughputPoint(1, 0.01, 100, True),
            ThroughputPoint(2, 0.02, 180, True),
            ThroughputPoint(4, 0.5, 300, False),
        ]
        best = latency_bounded_throughput(points)
        assert best.num_jobs == 2

    def test_none_when_infeasible(self):
        points = [ThroughputPoint(1, 0.5, 100, False)]
        assert latency_bounded_throughput(points) is None


class TestPoissonLoadGenerator:
    def test_rate_approximates_target(self):
        gen = PoissonLoadGenerator(rate_qps=1000, seed=3)
        queries = gen.generate(duration_s=2.0)
        assert len(queries) == pytest.approx(2000, rel=0.15)

    def test_arrivals_sorted_and_bounded(self):
        queries = PoissonLoadGenerator(rate_qps=500, seed=1).generate(1.0)
        times = [q.arrival_s for q in queries]
        assert times == sorted(times)
        assert all(0 <= t < 1.0 for t in times)

    def test_unique_ids(self):
        queries = PoissonLoadGenerator(rate_qps=200, seed=2).generate(1.0)
        ids = [q.query_id for q in queries]
        assert len(set(ids)) == len(ids)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            PoissonLoadGenerator(rate_qps=0)
        # 2.5 stamped 2.5 items on every query, and True one item.
        for bad in (2.5, True):
            with pytest.raises(ValueError, match="PoissonLoadGenerator.num_items"):
                PoissonLoadGenerator(1000.0, num_items=bad)
        assert PoissonLoadGenerator(1000.0, num_items=np.int64(2)).num_items == 2


def scalar_arrival_times(rng, rate_qps, duration_s):
    """The scalar draw loop ``poisson_arrival_times`` reproduces."""
    times = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate_qps))
        if t >= duration_s:
            break
        times.append(t)
    return times


class TestPoissonArrivalTimes:
    CHUNK = 16

    # Streams shorter than one chunk, ending exactly on a chunk boundary,
    # and spanning several chunks.
    @pytest.mark.parametrize("count", [5, 32, 75])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar_loop(self, count, seed):
        rate_qps = 1000.0
        # The horizon is the (count+1)-th scalar arrival, so exactly
        # ``count`` arrivals fall before it.
        probe = scalar_arrival_times(np.random.default_rng(seed), rate_qps, 1.0)
        duration_s = probe[count]
        scalar_rng = np.random.default_rng(seed)
        batched_rng = np.random.default_rng(seed)
        expected = scalar_arrival_times(scalar_rng, rate_qps, duration_s)
        got = poisson_arrival_times(
            batched_rng, rate_qps, duration_s, chunk=self.CHUNK
        )
        assert len(expected) == count
        assert got.tolist() == expected
        # The generator ends where the scalar loop leaves it.
        assert batched_rng.random() == scalar_rng.random()


def poisson_trace(rate_qps=100.0, duration_s=1.0):
    return PoissonLoadGenerator(rate_qps).generate(duration_s)


def spike_trace(
    base_qps=100.0, start_s=0.2, spike_s=0.3, multiplier=3.0, duration_s=1.0
):
    spike = LoadSpike(start_s, spike_s, multiplier)
    return DiurnalLoadGenerator(
        base_qps, amplitude=0.0, spikes=(spike,)
    ).generate(duration_s)


def diurnal_trace(
    mean_qps=100.0, amplitude=0.5, period_s=1.0, phase_s=0.0, duration_s=1.0
):
    return DiurnalLoadGenerator(
        mean_qps, amplitude=amplitude, period_s=period_s, phase_s=phase_s
    ).generate(duration_s)


def mixed_trace(
    mean_qps=100.0, amplitude=0.5, phase_s=0.0, period_s=1.0, duration_s=1.0
):
    cls = ModelClassRate("a", mean_qps, amplitude=amplitude, phase_s=phase_s)
    return MixedModelLoadGenerator((cls,), period_s=period_s).generate(duration_s)


NON_FINITE = pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])


class TestNonFiniteLoadInputs:
    """Non-finite load-generator inputs raise a ValueError naming the field.

    That covers rates, horizons, periods, phases, amplitudes and spike
    fields. Before the check, inf hung the Poisson and thinning loops,
    and nan yielded no arrivals.
    """

    @NON_FINITE
    @pytest.mark.parametrize(
        "arg, field",
        [
            ("rate_qps", "PoissonLoadGenerator.rate_qps"),
            ("duration_s", "PoissonLoadGenerator.generate.duration_s"),
        ],
    )
    def test_poisson(self, arg, field, bad):
        with pytest.raises(ValueError, match=re.escape(field)):
            poisson_trace(**{arg: bad})

    @NON_FINITE
    @pytest.mark.parametrize(
        "arg, field",
        [
            ("start_s", "LoadSpike.start_s"),
            ("spike_s", "LoadSpike.duration_s"),
            ("multiplier", "LoadSpike.multiplier"),
            ("duration_s", "DiurnalLoadGenerator.generate.duration_s"),
        ],
    )
    def test_spike(self, arg, field, bad):
        with pytest.raises(ValueError, match=re.escape(field)):
            spike_trace(**{arg: bad})

    @NON_FINITE
    @pytest.mark.parametrize(
        "arg, field",
        [
            ("mean_qps", "DiurnalLoadGenerator.mean_qps"),
            ("amplitude", "DiurnalLoadGenerator.amplitude"),
            ("period_s", "DiurnalLoadGenerator.period_s"),
            ("phase_s", "DiurnalLoadGenerator.phase_s"),
            ("duration_s", "DiurnalLoadGenerator.generate.duration_s"),
        ],
    )
    def test_diurnal(self, arg, field, bad):
        with pytest.raises(ValueError, match=re.escape(field)):
            diurnal_trace(**{arg: bad})

    @NON_FINITE
    @pytest.mark.parametrize(
        "arg, field",
        [
            ("mean_qps", "ModelClassRate.mean_qps"),
            ("amplitude", "ModelClassRate.amplitude"),
            ("phase_s", "ModelClassRate.phase_s"),
            ("period_s", "MixedModelLoadGenerator.period_s"),
            ("duration_s", "MixedModelLoadGenerator.generate.duration_s"),
        ],
    )
    def test_mixed_model(self, arg, field, bad):
        with pytest.raises(ValueError, match=re.escape(field)):
            mixed_trace(**{arg: bad})

    def test_overflowing_peak_rate(self):
        # Every field is finite, but compounding spikes overflow the
        # thinning envelope to inf.
        with pytest.raises(ValueError, match="peak rate"):
            spike_trace(base_qps=1e200, multiplier=1e200)


class TestQuery:
    def test_rejects_negative_arrival(self):
        with pytest.raises(ValueError):
            Query(query_id=0, arrival_s=-1.0, num_items=1)

    def test_rejects_zero_items(self):
        with pytest.raises(ValueError):
            Query(query_id=0, arrival_s=0.0, num_items=0)

    @pytest.mark.parametrize("arrival_s", [math.nan, math.inf], ids=str)
    @pytest.mark.parametrize("cls", [Query, MixedQuery], ids=lambda c: c.__name__)
    def test_rejects_non_finite_arrival(self, cls, arrival_s):
        # A nan arrival was served with a nan latency, and an inf one
        # silently ended a multi-model trace there.
        kwargs = {"model": RMC1_SMALL.name} if cls is MixedQuery else {}
        with pytest.raises(ValueError, match=f"{cls.__name__}.arrival_s"):
            cls(99, arrival_s, 8, **kwargs)


class TestBatcher:
    def q(self, qid, t, items=1):
        return Query(query_id=qid, arrival_s=t, num_items=items)

    def test_dispatch_on_size(self):
        batcher = Batcher(max_items=2, max_wait_s=10)
        assert batcher.offer(self.q(0, 0.0)) is None
        batch = batcher.offer(self.q(1, 0.001))
        assert batch is not None
        assert batch.num_items == 2

    def test_dispatch_on_timeout(self):
        batcher = Batcher(max_items=100, max_wait_s=0.005)
        batcher.offer(self.q(0, 0.0))
        assert batcher.poll(0.001) is None
        batch = batcher.poll(0.006)
        assert batch is not None
        assert batch.queries[0].query_id == 0

    def test_flush_drains_pending(self):
        batcher = Batcher(max_items=100, max_wait_s=10)
        batcher.offer(self.q(0, 0.0))
        batch = batcher.flush(1.0)
        assert batch.num_items == 1
        assert batcher.flush(2.0) is None

    def test_multi_item_queries_count_items(self):
        batcher = Batcher(max_items=4, max_wait_s=10)
        batch = batcher.offer(self.q(0, 0.0, items=4))
        assert batch is not None

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            Batcher(max_items=0)

    def test_batch_stream_covers_all_queries(self):
        queries = PoissonLoadGenerator(rate_qps=2000, seed=0).generate(0.2)
        batches = batch_stream(queries, max_items=8, max_wait_s=0.002)
        total = sum(b.num_items for b in batches)
        assert total == len(queries)
        assert all(b.num_items <= 8 for b in batches)

    def test_batch_stream_respects_timeout(self):
        queries = [self.q(0, 0.0), self.q(1, 1.0)]
        batches = batch_stream(queries, max_items=10, max_wait_s=0.01)
        assert len(batches) == 2

    def test_oldest_arrival(self):
        batcher = Batcher(max_items=2, max_wait_s=10)
        batcher.offer(self.q(0, 0.5))
        batch = batcher.offer(self.q(1, 0.7))
        assert batch.oldest_arrival_s == 0.5

    def test_poll_at_exact_max_wait_dispatches(self):
        """The timeout bound is inclusive: wait == max_wait_s fires."""
        batcher = Batcher(max_items=100, max_wait_s=0.005)
        batcher.offer(self.q(0, 0.0))
        batch = batcher.poll(0.005)
        assert batch is not None
        assert batch.formed_at_s == 0.005
        assert batcher.poll(0.005) is None  # queue drained by dispatch

    def test_empty_flush_returns_none(self):
        batcher = Batcher(max_items=4, max_wait_s=0.001)
        assert batcher.flush(0.0) is None
        assert batcher.poll(10.0) is None
        assert batcher.pending_items == 0


def pipeline(candidate_count=64, seed=0, **sizes):
    model = RecommendationModel(scaled_for_execution(RMC1_SMALL, max_rows=100))
    return FilterRankPipeline(model, model, **sizes).recommend(
        candidate_count, seed=seed
    )


# owner, field, build(value), a value it accepts, values it rejects
CHECKED_INPUTS = [
    (
        "fault_storm", "num_replicas",
        lambda v: fault_storm(v, 0.1, seed=1),
        np.int64(2), (2.5, True),
    ),
    (
        "fault_storm", "duration_s",
        lambda v: fault_storm(2, v, seed=1),
        0.1, (math.inf, math.nan),
    ),
    *[
        (
            "fault_storm", count,
            lambda v, count=count: fault_storm(2, 0.1, seed=1, **{count: v}),
            np.int64(0), (2.5, True, -1),
        )
        for count in ("crash_count", "straggler_count", "bandwidth_dip_count")
    ],
    (
        "domain_storm", "duration_s",
        lambda v: domain_storm(FleetTopology(4), v, seed=1),
        0.1, (math.inf, math.nan),
    ),
    *[
        (
            "domain_storm", count,
            lambda v, count=count: domain_storm(
                FleetTopology(4), 0.1, seed=1, **{count: v}
            ),
            np.int64(0), (2.5, True, -1),
        )
        for count in ("crash_count", "partition_count", "slowdown_count")
    ],
    (
        "ResiliencePolicy", "max_retries",
        lambda v: ResiliencePolicy(
            timeout_s=0.0005, max_retries=v, backoff_base_s=0.0001
        ),
        np.int64(2), (2.5, True),
    ),
    (
        "ResilientRouter", "num_machines",
        lambda v: ResilientRouter(BROADWELL, RMC1_SMALL, 8, v).run(
            1000.0, 0.01
        ),
        np.int64(2), (2.5, True),
    ),
    (
        "ResilientRouter", "batch_size",
        lambda v: ResilientRouter(BROADWELL, RMC1_SMALL, v, 2).run(
            1000.0, 0.01
        ),
        np.int64(8), (2.5, True, 0),
    ),
    (
        "BatchedServer", "max_batch",
        lambda v: BatchedServer(BROADWELL, RMC1_SMALL, max_batch=v).simulate(
            1000.0, 0.01
        ),
        np.int64(8), (2.5, True),
    ),
    (
        "BatchedServer", "items_per_query",
        lambda v: BatchedServer(
            BROADWELL, RMC1_SMALL, items_per_query=v
        ).simulate(1000.0, 0.01),
        np.int64(2), (2.5, True),
    ),
    (
        "BatchedServer", "max_wait_s",
        lambda v: BatchedServer(BROADWELL, RMC1_SMALL, max_wait_s=v).simulate(
            1000.0, 0.01
        ),
        0.001, (math.inf, math.nan),
    ),
    (
        "FilterRankPipeline", "filter_keep",
        lambda v: pipeline(filter_keep=v, final_keep=1),
        np.int64(4), (2.5, True),
    ),
    (
        "FilterRankPipeline", "final_keep",
        lambda v: pipeline(final_keep=v),
        np.int64(5), (2.5, True),
    ),
    (
        "FilterRankPipeline", "batch_size",
        lambda v: pipeline(batch_size=v),
        np.int64(32), (2.5, True),
    ),
    (
        "FilterRankPipeline", "candidate_count",
        lambda v: pipeline(candidate_count=v),
        np.int64(100), (100.5,),
    ),
    (
        "DegradationPolicy", "queue_depth_trigger",
        lambda v: DegradationPolicy(
            max_lookups_per_table=2, queue_depth_trigger=v
        ),
        math.inf, (math.nan,),
    ),
    (
        "Batcher", "max_items",
        lambda v: Batcher(max_items=v),
        np.int64(4), (2.5, True),
    ),
    (
        "Batcher", "max_wait_s",
        lambda v: Batcher(max_wait_s=v),
        0.001, (math.inf, math.nan),
    ),
]


@pytest.mark.parametrize(
    "field, build, good, bad",
    [
        pytest.param(field, build, good, bad, id=f"{owner}.{field}-{bad}")
        for owner, field, build, good, bads in CHECKED_INPUTS
        for bad in bads
    ],
)
def test_counts_and_times_are_checked_where_they_are_given(
    field, build, good, bad
):
    # Before these checks a fractional or boolean count ran (2.5 replicas,
    # a batch of 2.5 items, True as one machine or one retry) or failed
    # later with a TypeError; a negative storm count drew no events; an inf
    # or nan storm horizon raised numpy's OverflowError, which names no
    # field; and a nan batcher wait or degradation trigger never fired.
    build(good)
    with pytest.raises(ValueError, match=re.escape(field)):
        build(bad)
