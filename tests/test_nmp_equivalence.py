"""NMP replay equivalence: the native kernel vs the reference loop.

The kernel's whole contract is **bit-identical observables** to the
per-access reference loop — pool latencies, per-rank busy times,
per-DIMM hit/miss counts, and the persistent hot-row cache state — across
geometries (rank counts that do and don't divide pool sizes, power-of-two
and odd shapes), hot-cache capacities including zero, skewed pooling
distributions, degenerate traces (empty, zero-length pools), and
multi-replay state persistence. These tests drive random pooled traces
through the reference loop (a system built inside ``reference_loops()``)
and the native kernel and compare every replay record for record.
Without a compiler the kernel cases skip, and every system runs the
reference loop.

Also covers the two off-switches promised by the ISSUE: ``nmp=None`` on
:class:`~repro.hw.timing.TimingModel` is byte-identical to not passing it,
and the Amdahl/engine/analytic cross-check agrees in the uniform limit and
diverges in the documented direction under skew.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config.presets import RMC1_SMALL, RMC2_SMALL
from repro.hw.server import BROADWELL
from repro.hw.timing import OP_OVERHEAD_S, TimingModel
from repro.memory.near_memory import (
    NearMemorySystem,
    NmpGeometry,
    amdahl_crosscheck,
)
from repro.memory.nmp_native import nmp_native_available
from tests.reference_loops import reference_loops

needs_native = pytest.mark.skipif(
    not nmp_native_available(), reason="native kernel unavailable"
)
BACKENDS = [pytest.param("native", marks=needs_native)]


def reference_system(*args, **kwargs) -> NearMemorySystem:
    """A system held to its reference loop."""
    with reference_loops():
        system = NearMemorySystem(*args, **kwargs)
    assert system.backend == "reference"
    return system

# Geometry corpus: the default shape, a single-rank degenerate, odd
# (non-power-of-two) shapes, a rank count that does not divide the common
# pool sizes, and a zero-capacity hot cache.
GEOMETRIES = [
    NmpGeometry(),
    NmpGeometry(channels=1, dimms_per_channel=1, ranks_per_dimm=1),
    NmpGeometry(channels=3, dimms_per_channel=1, ranks_per_dimm=2,
                hot_rows_per_dimm=4),
    NmpGeometry(channels=2, dimms_per_channel=3, ranks_per_dimm=1,
                hot_rows_per_dimm=1),
    NmpGeometry(channels=2, dimms_per_channel=2, ranks_per_dimm=2,
                hot_rows_per_dimm=0),
]


def _pools(draw_rows, lengths):
    rows = np.asarray(draw_rows, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    return rows[: int(lengths.sum())], lengths


@st.composite
def pooled_trace(draw):
    """A pooled trace: per-pool lengths (zeros allowed) plus row ids."""
    lengths = draw(
        st.lists(st.integers(min_value=0, max_value=24), min_size=0, max_size=12)
    )
    total = sum(lengths)
    # Narrow id range → dense reuse; wide → mostly compulsory misses.
    high = draw(st.sampled_from([7, 64, 4096]))
    rows = draw(
        st.lists(
            st.integers(min_value=0, max_value=high),
            min_size=total,
            max_size=total,
        )
    )
    return rows, lengths


@st.composite
def trace_batches(draw):
    """1-4 consecutive pooled traces (state persists between replays)."""
    return draw(st.lists(pooled_trace(), min_size=1, max_size=4))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("geometry", GEOMETRIES)
@settings(max_examples=40, deadline=None)
@given(batches=trace_batches())
def test_engines_bit_identical(geometry, backend, batches):
    reference = reference_system(geometry)
    kernel = NearMemorySystem(geometry)
    assert kernel.backend == backend
    for draw_rows, lengths in batches:
        rows, lengths = _pools(draw_rows, lengths)
        got = kernel.replay(rows, lengths)
        want = reference.replay(rows, lengths)
        assert got.digest() == want.digest()
        # Persistent cache state must agree too, not just the observables.
        assert kernel.resident_hot_rows() == reference.resident_hot_rows()


@pytest.mark.parametrize("backend", BACKENDS)
def test_degenerate_traces(backend):
    system = NearMemorySystem(NmpGeometry())
    assert system.backend == backend
    empty = system.replay(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    assert empty.num_pools == 0
    assert empty.num_lookups == 0
    assert empty.elapsed_ns == 0
    # Zero-length pools still pay the pool launch overhead.
    zeros = system.replay(
        np.zeros(0, dtype=np.int64), np.zeros(3, dtype=np.int64)
    )
    assert zeros.num_pools == 3
    assert zeros.elapsed_ns == 3 * NmpGeometry().pool_overhead_ns
    reference = reference_system(NmpGeometry())
    assert zeros.digest() == reference.replay(
        np.zeros(0, dtype=np.int64), np.zeros(3, dtype=np.int64)
    ).digest()


def test_replay_validates_trace():
    system = NearMemorySystem()
    with pytest.raises(ValueError, match="non-negative"):
        system.replay(np.array([-1], dtype=np.int64))
    with pytest.raises(ValueError, match="lengths sum"):
        system.replay(np.array([1, 2], dtype=np.int64), np.array([3]))


def test_hot_cache_catches_reuse():
    geometry = NmpGeometry()
    system = NearMemorySystem(geometry)
    rows = np.tile(np.arange(64, dtype=np.int64), 10)
    result = system.replay(rows)
    assert result.hot_misses == 64  # compulsory only
    assert result.hot_hits == 64 * 9
    # Disabling the cache turns every lookup into a rank gather.
    cold = NearMemorySystem(
        NmpGeometry(hot_rows_per_dimm=0)
    ).replay(rows)
    assert cold.hot_hits == 0
    assert cold.hot_misses == rows.size


def test_skew_shows_up_as_rank_contention():
    geometry = NmpGeometry(hot_rows_per_dimm=0)
    uniform = NearMemorySystem(geometry).replay(
        np.arange(160, dtype=np.int64), np.full(2, 80, dtype=np.int64)
    )
    # All lookups collide on one rank: same work, one critical path.
    skewed = NearMemorySystem(geometry).replay(
        np.full(160, 5, dtype=np.int64), np.full(2, 80, dtype=np.int64)
    )
    assert skewed.num_lookups == uniform.num_lookups
    assert skewed.elapsed_ns > uniform.elapsed_ns
    assert skewed.rank_imbalance == pytest.approx(geometry.num_ranks)
    assert uniform.rank_imbalance == 1.0


# --- TimingModel off-switch -------------------------------------------------


def test_nmp_none_is_byte_identical():
    model_off = TimingModel(BROADWELL, nmp=None)
    model_default = TimingModel(BROADWELL)
    for config in (RMC1_SMALL, RMC2_SMALL):
        for batch in (1, 16):
            off = model_off.model_latency(config, batch)
            base = model_default.model_latency(config, batch)
            assert off.total_seconds == base.total_seconds
            assert [op.seconds for op in off.per_op] == [
                op.seconds for op in base.per_op
            ]


def test_nmp_geometry_changes_sls_only():
    base = TimingModel(BROADWELL).model_latency(RMC2_SMALL, 16)
    nmp = TimingModel(BROADWELL, nmp=NmpGeometry()).model_latency(
        RMC2_SMALL, 16, sls_hit_ratio=0.0
    )
    for op_base, op_nmp in zip(base.per_op, nmp.per_op):
        if op_base.op_type == "SLS":
            assert op_nmp.seconds < op_base.seconds
        else:
            assert op_nmp.seconds == op_base.seconds


# --- Amdahl / engine / analytic cross-check ---------------------------------


@pytest.mark.parametrize("config", [RMC1_SMALL, RMC2_SMALL], ids=lambda c: c.name)
def test_crosscheck_agrees_in_uniform_limit(config):
    # Default geometry: 16 ranks divide the 80-lookup pools exactly, so the
    # analytic TimingModel path must match the engine *exactly*, and the
    # Amdahl path within its documented OP_OVERHEAD_S-per-SLS-op residual.
    check = amdahl_crosscheck(BROADWELL, config, batch_size=16)
    assert check.model_vs_engine_rel < 1e-12
    num_sls = sum(
        1
        for op in TimingModel(BROADWELL).model_latency(config, 16).per_op
        if op.op_type == "SLS"
    )
    bound = num_sls * OP_OVERHEAD_S / check.engine_seconds
    assert check.amdahl_vs_engine_rel <= bound + 1e-12
    assert check.engine_seconds < check.baseline_seconds


def test_amdahl_is_optimistic_under_skew():
    # All lookups on one rank: the engine sees the serialized critical
    # path; the flat Amdahl factor still assumes perfect rank spreading.
    geometry = NmpGeometry(hot_rows_per_dimm=0)
    config, batch = RMC2_SMALL, 16
    baseline = TimingModel(BROADWELL).model_latency(config, batch)
    system = NearMemorySystem(geometry)
    engine_seconds = 0.0
    from repro.core.graph import config_ops

    for spec, op in zip(config_ops(config), baseline.per_op):
        if spec.op_type != "SLS":
            engine_seconds += op.seconds
            continue
        lookups = batch * spec.lookups_per_sample
        rows = np.full(lookups, geometry.num_ranks, dtype=np.int64)  # one rank
        lengths = np.full(batch, spec.lookups_per_sample, dtype=np.int64)
        engine_seconds += system.replay(rows, lengths).elapsed_s + OP_OVERHEAD_S
    uniform = amdahl_crosscheck(BROADWELL, config, batch, geometry)
    assert engine_seconds > uniform.engine_seconds  # contention costs time


def test_engine_beats_amdahl_under_hot_locality():
    # A trace that re-references a tiny working set: hot-row hits beat the
    # flat factor, which only knows the uniform gather cost.
    config, batch = RMC2_SMALL, 16
    geometry = NmpGeometry()
    baseline = TimingModel(BROADWELL).model_latency(config, batch)
    system = NearMemorySystem(geometry)
    engine_seconds = 0.0
    from repro.core.graph import config_ops

    for spec, op in zip(config_ops(config), baseline.per_op):
        if spec.op_type != "SLS":
            engine_seconds += op.seconds
            continue
        lookups = batch * spec.lookups_per_sample
        rows = np.arange(lookups, dtype=np.int64) % (
            geometry.num_ranks * 4
        )  # 64-row working set, spread over every rank
        lengths = np.full(batch, spec.lookups_per_sample, dtype=np.int64)
        engine_seconds += system.replay(rows, lengths).elapsed_s + OP_OVERHEAD_S
    uniform = amdahl_crosscheck(BROADWELL, config, batch, geometry)
    assert engine_seconds < uniform.engine_seconds  # locality saves time


# -------------------------------------------------------- validation edges


def test_geometry_validation():
    with pytest.raises(ValueError):
        NmpGeometry(channels=0)
    with pytest.raises(ValueError):
        NmpGeometry(ranks_per_dimm=0)
    with pytest.raises(ValueError):
        NmpGeometry(hot_rows_per_dimm=-1)
    with pytest.raises(ValueError):
        NmpGeometry(rank_gather_ns=40.5)  # costs must be integer ns
    with pytest.raises(ValueError):
        NmpGeometry(hot_hit_ns=-1)


@pytest.mark.parametrize(
    "field, bad",
    [
        ("channels", 2.5),
        ("dimms_per_channel", 1.5),
        ("ranks_per_dimm", True),
        ("hot_rows_per_dimm", 8.5),
        ("hot_rows_per_dimm", True),
    ],
)
def test_geometry_counts_must_be_integers(field, bad):
    # Accepted at construction, a fractional count used to fail later
    # with a TypeError inside replay().
    NmpGeometry(**{field: np.int64(2)})
    with pytest.raises(ValueError, match=field):
        NmpGeometry(**{field: bad})


@pytest.mark.parametrize("field", ["rank_gather_ns", "hot_hit_ns", "pool_overhead_ns"])
def test_geometry_service_times_must_be_integers(field):
    # An isinstance(int) check took True and refused a numpy integer: the
    # opposite of the counts above.
    default = getattr(NmpGeometry(), field)
    geometry = NmpGeometry(**{field: np.int64(default)})
    priced = TimingModel(BROADWELL, nmp=geometry).model_latency(RMC2_SMALL, 8)
    assert priced == TimingModel(BROADWELL, nmp=NmpGeometry()).model_latency(
        RMC2_SMALL, 8
    )
    with pytest.raises(ValueError, match=field):
        NmpGeometry(**{field: True})


def test_placement_helpers_follow_low_order_interleave():
    geometry = NmpGeometry(channels=3, dimms_per_channel=2, ranks_per_dimm=2)
    assert geometry.num_dimms == 6
    assert geometry.num_ranks == 12
    for row in (0, 1, 11, 12, 9973):
        rank = row % geometry.num_ranks
        assert geometry.rank_of(row) == rank
        assert geometry.dimm_of(row) == rank // geometry.ranks_per_dimm
        assert geometry.channel_of(row) == (
            geometry.dimm_of(row) // geometry.dimms_per_channel
        )


def test_nmp_config_validation():
    from repro.memory.near_memory import NmpConfig

    with pytest.raises(ValueError):
        NmpConfig(sls_speedup=0.5)
    with pytest.raises(ValueError):
        NmpConfig(offload_overhead_s=-1e-9)


def test_from_geometry_degenerates_to_identity_without_gather_cost():
    # rank_gather_ns == 0 makes the uniform gather free; the derived flat
    # factor collapses to the identity config instead of dividing by zero.
    from repro.memory.near_memory import NmpConfig, nmp_speedup

    geometry = NmpGeometry(rank_gather_ns=0)
    derived = NmpConfig.from_geometry(BROADWELL, geometry, RMC2_SMALL, 16)
    assert derived.sls_speedup == 1.0
    assert derived.offload_overhead_s == 0.0
    result = nmp_speedup(BROADWELL, RMC2_SMALL, 16, derived)
    assert result.accelerated_seconds == pytest.approx(result.baseline_seconds)
    assert result.end_to_end_speedup == pytest.approx(1.0)


def test_replay_result_empty_and_idle_properties():
    system = NearMemorySystem(NmpGeometry())
    empty = system.replay(np.array([], dtype=np.int64))
    assert empty.num_lookups == 0
    assert empty.hot_hit_ratio == 0.0
    assert empty.elapsed_s == pytest.approx(empty.elapsed_ns * 1e-9)
    # Pools exist but no rank ever works: utilization 0, imbalance neutral.
    idle = NearMemorySystem(NmpGeometry()).replay(
        np.array([], dtype=np.int64), np.zeros(3, dtype=np.int64)
    )
    assert idle.num_pools == 3
    assert idle.rank_utilization == 0.0
    assert idle.rank_imbalance == 1.0


def test_invalid_engine_and_backend_rejected():
    # The system picks its own loop: there is no option to pass.
    with pytest.raises(TypeError):
        NearMemorySystem(NmpGeometry(), engine="reference")
    with pytest.raises(TypeError):
        NearMemorySystem(NmpGeometry(), backend="native")


def test_vectorized_falls_back_to_reference():
    geometry = NmpGeometry(hot_rows_per_dimm=8)
    rng = np.random.default_rng(4)
    systems = [reference_system(geometry), NearMemorySystem(geometry)]
    assert systems[1].backend == (
        "native" if nmp_native_available() else "reference"
    )
    for _ in range(3):
        rows = rng.integers(0, 200, size=400)
        lengths = np.full(5, 80, dtype=np.int64)
        digests = [system.replay(rows, lengths).digest() for system in systems]
        assert digests[0] == digests[1]
    assert systems[0].resident_hot_rows() == systems[1].resident_hot_rows()


def test_observability_hooks_record_replay():
    from repro.obs import MetricsRegistry, Tracer

    tracer = Tracer()
    metrics = MetricsRegistry()
    system = NearMemorySystem(
        NmpGeometry(), tracer=tracer, metrics=metrics, track=3
    )
    rows = np.arange(32, dtype=np.int64)
    system.replay(rows, np.full(4, 8, dtype=np.int64))
    (span,) = tracer.spans
    assert span.name == "memory.nmp.replay"
    assert span.track == 3
    assert span.args["lookups"] == 32
    backend = system.backend
    assert metrics.counter("memory.nmp.lookups", backend=backend).value == 32
    hits = metrics.counter("memory.nmp.hot_hits", backend=backend).value
    misses = metrics.counter("memory.nmp.hot_misses", backend=backend).value
    assert hits + misses == 32


def test_vectorized_state_validation_and_probe():
    from repro.memory.nmp_vectorized import VectorizedHotRowState

    with pytest.raises(ValueError):
        VectorizedHotRowState(0, 4)
    with pytest.raises(ValueError):
        VectorizedHotRowState(4, -1)
    state = VectorizedHotRowState(2, 2)
    state.tags[1, 0] = 42
    state.occupancy[1] = 1
    assert state.probe(1, 42)
    assert not state.probe(1, 7)
    assert not state.probe(0, 42)
    assert state.resident_rows() == 1
