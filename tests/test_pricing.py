"""Pricing each operator shape once, and running each Figure 11 point once.

``TimingModel.model_latency`` prices each distinct operator shape once
per call and gives every copy its own name; these tests hold it to the
per-operator algorithm (``op_time`` over ``config_ops``), exactly, across
every production preset, server, contention level, backend and hit
ratio. The Figure 11 tests check that each run simulates every curve
point once and that no pricing cache outlives its run.
"""

from dataclasses import replace

import pytest

from repro.config import (
    PRODUCTION_PRESETS,
    RMC1_SMALL,
    RMC2_SMALL,
    EmbeddingTableConfig,
)
from repro.core.graph import config_ops
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
from repro.obs import OpProfiler
from repro.serving import ServingSimulator

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


class _Recorder(OpProfiler):
    """An :class:`OpProfiler` that also keeps every call, in order."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def record_timed_op(self, op, frequency_ghz, bytes_moved):
        self.calls.append((op, frequency_ghz, bytes_moved))
        super().record_timed_op(op, frequency_ghz, bytes_moved)


@pytest.mark.parametrize("nmp", [False, True], ids=["host", "nmp"])
def test_profiler_hears_every_operator_in_order(nmp):
    geometry = NmpGeometry() if nmp else None
    profiled, reference = _Recorder(), _Recorder()
    tm = TimingModel(BROADWELL, profiler=profiled, nmp=geometry)
    per_op_tm = TimingModel(BROADWELL, profiler=reference, nmp=geometry)
    plain = TimingModel(BROADWELL, nmp=geometry)
    for config in (RMC2_SMALL, RMC1_SMALL):
        for state in _states(plain, config).values():
            latency = tm.model_latency(config, BATCH, state)
            _per_op_reference(per_op_tm, config, state, None)
            assert latency == plain.model_latency(config, BATCH, state)
    assert profiled.calls == reference.calls
    assert profiled.by_op_type == reference.by_op_type
    ops = len(config_ops(RMC2_SMALL)) + len(config_ops(RMC1_SMALL))
    assert len(profiled.calls) == 4 * ops


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


def test_second_fig11_run_prices_as_much_as_the_first(monkeypatch):
    """No pricing cache outlives the run that filled it."""
    calls = {"model_latency": 0, "op_time": 0}
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
    assert first_calls["model_latency"] > 0
    assert calls == {k: 2 * v for k, v in first_calls.items()}
    for name, server in first.servers.items():
        again = second.servers[name]
        assert (server.pooled_samples_us == again.pooled_samples_us).all()
