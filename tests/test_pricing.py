"""Pricing each operator shape once, and running each Figure 11 point once.

``TimingModel.model_latency`` prices each distinct operator shape once
per call and gives every copy its own name, and ``model_seconds`` returns
its ``total_seconds`` without building the records. Both share their
formulas with the per-operator methods, so these tests compare two views
of the same arithmetic, exactly, across every production preset, server,
contention level, backend and hit ratio, and on random states; the
``pricing_bits`` golden holds that arithmetic to its pinned bits. The
Figure 11 tests check that each run simulates every curve point once,
prices each contention level once, and keeps no pricing cache past its
run.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (
    PRODUCTION_PRESETS,
    RMC2_SMALL,
    EmbeddingTableConfig,
)
from repro.core.graph import OpSpec, config_ops
from repro.core.operators.base import OP_SLS
from repro.experiments import fig11_tail_latency
from repro.hw import (
    ALL_SERVERS,
    BROADWELL,
    MB,
    RUN_ALONE,
    SKYLAKE,
    ColocationState,
    TimingModel,
)
from repro.memory import NmpGeometry
from repro.serving import ContentionLevels, ServingSimulator

BATCH = 32

#: Every preset's tables share one shape. These differ from the first in
#: one field each (lookups, dim, rows), and the second repeats the first.
MIXED_TABLES = replace(
    RMC2_SMALL,
    name="mixed-tables",
    embedding_tables=(
        EmbeddingTableConfig(2_000_000, 32, 80),
        EmbeddingTableConfig(2_000_000, 32, 80),
        EmbeddingTableConfig(2_000_000, 32, 20),
        EmbeddingTableConfig(2_000_000, 64, 80),
        EmbeddingTableConfig(100_000, 32, 80),
    ),
    dtype="fp16",
)


def _states(tm, config):
    """Alone, 8 jobs, hyperthreading, and past the LLC overflow point."""
    overflow = ColocationState(
        num_jobs=40, resident_bytes_per_job=4 * MB, corunner_random_gbps=2.0
    )
    assert tm.contention.llc_overflow(overflow) > 0
    return {
        "alone": RUN_ALONE,
        "8 jobs": tm.colocation_state(config, BATCH, 8),
        "hyperthreading": tm.colocation_state(
            config, BATCH, 8, hyperthreading=True
        ),
        "llc overflow": overflow,
    }


def _per_op_reference(tm, config, state, sls_hit_ratio):
    """Every operator priced on its own, as ``model_latency`` once did."""
    if sls_hit_ratio is None:
        sls_hit_ratio = (
            0.0
            if tm.nmp is not None
            else tm.table_hit_ratio(config.embedding_storage_bytes())
        )
    return tuple(
        tm.op_time(spec, BATCH, state, sls_hit_ratio)
        for spec in config_ops(config)
    )


@pytest.mark.parametrize("nmp", [False, True], ids=["host", "nmp"])
@pytest.mark.parametrize("server", ALL_SERVERS, ids=lambda s: s.name)
@pytest.mark.parametrize(
    "config", [*PRODUCTION_PRESETS.values(), MIXED_TABLES], ids=lambda c: c.name
)
def test_per_op_equals_pricing_every_operator(config, server, nmp):
    tm = TimingModel(server, nmp=NmpGeometry() if nmp else None)
    for name, state in _states(tm, config).items():
        for hit in (None, 0.3):
            latency = tm.model_latency(config, BATCH, state, sls_hit_ratio=hit)
            expected = _per_op_reference(tm, config, state, hit)
            assert latency.per_op == expected, (name, hit)
            assert latency.total_seconds == sum(op.seconds for op in expected)
            seconds = tm.model_seconds(config, BATCH, state, sls_hit_ratio=hit)
            assert seconds == latency.total_seconds, (name, hit)


@st.composite
def _colocation_states(draw):
    return ColocationState(
        num_jobs=draw(st.integers(1, 64)),
        hyperthreading=draw(st.booleans()),
        resident_bytes_per_job=draw(st.integers(0, 64 * MB)),
        corunner_random_gbps=draw(
            st.one_of(st.none(), st.floats(0.0, 20.0, allow_nan=False))
        ),
    )


@settings(max_examples=60, deadline=None)
@given(
    config=st.sampled_from([*PRODUCTION_PRESETS.values(), MIXED_TABLES]),
    server=st.sampled_from(ALL_SERVERS),
    nmp=st.booleans(),
    state=_colocation_states(),
    batch=st.integers(1, 1024),
    hit=st.one_of(st.none(), st.floats(0.0, 1.0)),
)
def test_one_pass_equals_per_operator_pricing(config, server, nmp, state, batch, hit):
    tm = TimingModel(server, nmp=NmpGeometry() if nmp else None)
    latency = tm.model_latency(config, batch, state, sls_hit_ratio=hit)
    if hit is None:
        hit = 0.0 if nmp else tm.table_hit_ratio(config.embedding_storage_bytes())
    for op, spec in zip(latency.per_op, config_ops(config), strict=True):
        assert op == tm.op_time(spec, batch, state, hit)
    assert tm.model_seconds(config, batch, state, hit) == latency.total_seconds


@pytest.mark.parametrize("method", ["model_latency", "model_seconds"])
def test_whole_model_pricing_keeps_its_errors(method, monkeypatch):
    price = getattr(TimingModel(BROADWELL), method)
    with pytest.raises(ValueError, match="batch must be >= 1"):
        price(RMC2_SMALL, 0)
    for bad in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match="hit_ratio"):
            price(RMC2_SMALL, BATCH, sls_hit_ratio=bad)
    # Without an SLS operator, the hit ratio is never read.
    real_config_ops = config_ops
    monkeypatch.setattr(
        "repro.hw.timing.config_ops",
        lambda config: [s for s in real_config_ops(config) if s.op_type != OP_SLS],
    )
    getattr(TimingModel(BROADWELL), method)(RMC2_SMALL, BATCH, sls_hit_ratio=1.5)
    unknown = OpSpec("odd", "Softmax", 1, 0, 4)
    monkeypatch.setattr("repro.hw.timing.config_ops", lambda config: [unknown])
    with pytest.raises(ValueError, match="no timing model for op type 'Softmax'"):
        getattr(TimingModel(BROADWELL), method)(RMC2_SMALL, BATCH)


@pytest.mark.parametrize("batch", [0, -3])
@pytest.mark.parametrize("nmp", [False, True], ids=["host", "nmp"])
def test_every_entry_point_rejects_a_batch_below_one(nmp, batch):
    # The near-memory SLS price reads no batch-interpolated term, so it
    # priced a negative batch as negative seconds.
    tm = TimingModel(BROADWELL, nmp=NmpGeometry() if nmp else None)
    sls = next(spec for spec in config_ops(RMC2_SMALL) if spec.op_type == OP_SLS)
    for price in (
        lambda: tm.sls_time("x", 10, 32, batch),
        lambda: tm.op_time(sls, batch),
        lambda: tm.model_latency(RMC2_SMALL, batch),
        lambda: tm.model_seconds(RMC2_SMALL, batch),
    ):
        with pytest.raises(ValueError, match="batch must be >= 1"):
            price()


@pytest.mark.parametrize("num_instances", [4], ids=["fault-free"])
def test_only_a_faulted_run_prices_the_memory_fraction(num_instances, monkeypatch):
    # A simulator run prices its contention levels with model_seconds
    # alone; nothing in it builds a per-operator ModelLatency.
    calls = []
    original = TimingModel.model_latency

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(TimingModel, "model_latency", counted)
    levels = ContentionLevels(BROADWELL, RMC2_SMALL, BATCH)
    ServingSimulator(levels, num_instances).run(0.01)
    assert calls == []


def _fig11_small(workload=RMC2_SMALL):
    return fig11_tail_latency.run(
        workload=workload,
        servers=(BROADWELL, SKYLAKE),
        regimes=(1, 8),
        curve_jobs=(1, 8, 16),
        duration_s=0.01,
        seed=5,
    )


def test_fig11_runs_each_curve_point_once(monkeypatch):
    runs = []
    original = ServingSimulator.run

    def counted(self, *args, **kwargs):
        runs.append(self.num_instances)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ServingSimulator, "run", counted)
    result = _fig11_small()
    # Per server: the regimes (1, 8) and the curve points (1, 8, 16).
    assert len(runs) == 2 * (2 + 3)
    for server in result.servers.values():
        assert [p.num_jobs for p in server.curve_small] == [1, 8, 16]
        assert [p.num_jobs for p in server.curve_large] == [1, 8, 16]


def test_fig11_prices_each_level_once(monkeypatch):
    """Figure 11's simulators share one level table per server setting.

    The expected counts come from the runs themselves: the active-job
    counts each table's simulators dispatched at, and the levels each FC
    probe shape was sampled at.
    """
    builds = []
    original_init = TimingModel.__init__

    def counted_init(self, *args, **kwargs):
        builds.append(self)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(TimingModel, "__init__", counted_init)
    calls = dict.fromkeys(("model_seconds", "fc_time"), 0)
    for method in calls:
        original = getattr(TimingModel, method)

        def counted(self, *args, _method=method, _original=original, **kwargs):
            calls[_method] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(TimingModel, method, counted)
    dispatched = {}
    probed = {}
    original_run = ServingSimulator.run
    original_samples = ServingSimulator.fc_latency_samples

    def run(self, *args, **kwargs):
        result = original_run(self, *args, **kwargs)
        levels = set(result.active_job_counts().tolist())
        dispatched.setdefault(self.levels, set()).update(levels)
        return result

    def samples(self, result, input_dim, output_dim, fc_batch=1):
        probe = (self.levels, input_dim, output_dim, fc_batch)
        probed.setdefault(probe, set()).update(result.active_job_counts().tolist())
        return original_samples(self, result, input_dim, output_dim, fc_batch)

    monkeypatch.setattr(ServingSimulator, "run", run)
    monkeypatch.setattr(ServingSimulator, "fc_latency_samples", samples)
    # A config no other test prices.
    _fig11_small(replace(RMC2_SMALL, name="RMC2-small, level-count check"))
    tables = list(dispatched)
    assert len({(t.server.name, t.hyperthreading) for t in tables}) == len(tables)
    assert sorted(map(id, builds)) == sorted(id(t.timing) for t in tables)
    # Each dispatched level once, plus each table's traffic estimate.
    assert calls["model_seconds"] == sum(
        1 + len(levels) for levels in dispatched.values()
    )
    assert calls["fc_time"] == sum(len(levels) for levels in probed.values())
    assert {probe[0] for probe in probed} == set(tables)


def test_second_fig11_run_prices_as_much_as_the_first(monkeypatch):
    """No pricing cache outlives the run that filled it.

    Counts the public entry points and the per-shape formulas every
    price passes through (``_price`` for whole-model calls, ``_fc`` for
    those and ``fc_time``), so a memo inside an entry point shows as a
    second run that calls it as often but prices less.
    """
    calls = dict.fromkeys(
        ("model_latency", "model_seconds", "op_time", "fc_time", "_price", "_fc"),
        0,
    )
    for method in calls:
        original = getattr(TimingModel, method)

        def counted(self, *args, _method=method, _original=original, **kwargs):
            calls[_method] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(TimingModel, method, counted)
    # A config no other test prices, so a cache shared across runs would
    # be cold for the first run whatever ran before it in this process.
    workload = replace(RMC2_SMALL, name="RMC2-small, second-run check")
    first = _fig11_small(workload)
    first_calls = dict(calls)
    second = _fig11_small(workload)
    for method in ("model_seconds", "fc_time", "_price", "_fc"):
        assert first_calls[method] > 0, method
    assert calls == {k: 2 * v for k, v in first_calls.items()}
    for name, server in first.servers.items():
        again = second.servers[name]
        assert (server.pooled_samples_us == again.pooled_samples_us).all()
