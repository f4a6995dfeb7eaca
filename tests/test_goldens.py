"""Golden-output regression tests for key experiments.

Each test reduces an experiment to a canonical JSON payload (floats rounded
to 6 significant digits) and compares it against a checked-in golden.
Refresh after intentional model changes with::

    PYTHONPATH=src python -m pytest tests/test_goldens.py --update-goldens
"""

import hashlib
import json

import numpy as np

from repro.analysis.distributions import summarize
from repro.config import PRODUCTION_PRESETS, RMC1_SMALL, RMC2_SMALL
from repro.core.graph import config_ops
from repro.core.operators.base import (
    OP_ACTIVATION,
    OP_BATCH_MATMUL,
    OP_CONCAT,
    OP_FC,
)
from repro.data import TemporalReuseGenerator
from repro.data.traces import random_trace, synthetic_production_traces
from repro.experiments import (
    fig09_colocation,
    fig10_latency_throughput,
    fig11_tail_latency,
    fig11x_faults,
    fig11y_overload,
    fig11z_domains,
    fig14_trace_locality,
    figmm_multimodel,
    fignmp_near_memory,
    fleet_day,
)
from repro.hw import ALL_SERVERS, BROADWELL, MB, SKYLAKE, TimingModel
from repro.memory import NmpGeometry
from repro.serving import (
    DiurnalLoadGenerator,
    LoadSpike,
    MixedModelLoadGenerator,
    ModelClassRate,
    PoissonLoadGenerator,
    ServingSimulator,
)
from repro.serving.faults import ResiliencePolicy, ResilientRouter, fault_storm
from repro.serving.router import POLICIES, RequestRouter, compare_policies
from tests.oracles.resilient_router import run_reference
from tests.reference_loops import reference_loops
from tests.test_pricing import MIXED_TABLES, _states


def test_fig10_latency_throughput_golden(golden):
    result = fig10_latency_throughput.run()
    payload = {
        "model": result.model_name,
        "batch_size": result.batch_size,
        "sla_deadline_s": result.sla.deadline_s,
        "frontiers": {
            server: [
                {
                    "num_jobs": p.num_jobs,
                    "latency_s": p.latency_s,
                    "items_per_s": p.items_per_s,
                    "meets_sla": p.meets_sla,
                }
                for p in points
            ]
            for server, points in sorted(result.frontiers.items())
        },
    }
    golden("fig10_latency_throughput", payload)


def test_fig14_trace_locality_golden(golden):
    result = fig14_trace_locality.run(table_rows=200_000, trace_length=8_000)
    payload = {
        "rows": [
            {
                "name": row.name,
                "unique_fraction": row.unique_fraction,
                "llc_mpki": row.llc_mpki,
            }
            for row in result.rows
        ],
    }
    golden("fig14_trace_locality", payload)


# --- Exact-bit trace golden --------------------------------------------------
#
# The Figure 14 golden rounds unique fractions and MPKI, so it cannot show
# that a change kept every generated ID. This one hashes the IDs of every
# synthetic production trace and random baseline at 10,000 lookups (so the
# 4,096-entry reuse history wraps), and of temporal-reuse generators called
# three times with a carried history, with the generator state after each
# call.


def _ids_sha256(ids) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(ids, dtype=np.int64).tobytes()
    ).hexdigest()


def _state_sha256(bit_generator) -> str:
    state = json.dumps(
        bit_generator.state, sort_keys=True, default=lambda a: a.tolist()
    )
    return hashlib.sha256(state.encode()).hexdigest()


#: name: (bit generator, rows, reuse_probability, history, counts per call)
_REUSE_CASES = {
    "small_table": (np.random.PCG64(1), 97, 0.5, 16, (40, 0, 75)),
    "one_row": (np.random.PCG64(2), 1, 0.3, 8, (20, 5, 20)),
    "no_reuse": (np.random.PCG64(3), 10_000, 0.0, 4096, (3000, 3000, 3000)),
    "rows_2**32": (np.random.PCG64(4), 2**32, 0.6, 4096, (5000, 1, 6000)),
    "rows_2**40": (np.random.PCG64(5), 2**40, 0.8, 300, (2000, 2500, 700)),
    "mt19937_rows_2**32+5": (
        np.random.MT19937(6), 2**32 + 5, 0.45, 1000, (1500, 10, 2500)
    ),
}


def _trace_bits_payload():
    payload = {}
    for rows in (8_192, 200_000):
        for seed in range(3):
            key = f"rows{rows}/seed{seed}"
            payload[f"production/{key}"] = {
                trace.name: _ids_sha256(trace.ids)
                for trace in synthetic_production_traces(rows, 10_000, seed=seed)
            }
            trace = random_trace(rows, 10_000, np.random.default_rng(seed))
            payload[f"random/{key}"] = _ids_sha256(trace.ids)
    for name, (bit_generator, rows, reuse, history, counts) in _REUSE_CASES.items():
        rng = np.random.Generator(type(bit_generator)())
        rng.bit_generator.state = bit_generator.state
        gen = TemporalReuseGenerator(rows, 1, reuse, history=history)
        calls = [
            {"ids": _ids_sha256(gen.ids(count, rng)),
             "state": _state_sha256(rng.bit_generator)}
            for count in counts
        ]
        payload[f"reuse/{name}"] = {
            "calls": calls, "recent": _ids_sha256(gen._recent)
        }
    return payload


def test_trace_bits_golden(golden):
    golden("trace_bits", _trace_bits_payload())


def test_trace_bits_golden_engine_invariant(golden):
    # Temporal reuse's two loops are bit-identical by contract, so the
    # reference loop must reproduce the golden byte for byte.
    with reference_loops():
        golden("trace_bits", _trace_bits_payload())


# --- Exact-bit arrival golden ------------------------------------------------
#
# Pins every arrival time the load generators draw, bit for bit, with the
# generator state each leaves behind: the homogeneous Poisson source, the
# diurnal thinning source with and without two overlapping spikes (one
# multiplier 3, one 0), the flat spiked source over two successive calls,
# and the mixed-model trace over three classes (its per-class generators
# are internal, so its times and model tags are pinned instead).

_ARRIVAL_SPIKES = (
    LoadSpike(start_s=0.1, duration_s=0.2, multiplier=3.0),
    LoadSpike(start_s=0.25, duration_s=0.1, multiplier=0.0),
)

_ARRIVAL_CLASSES = (
    ModelClassRate("rmc1", 2400.0, amplitude=0.6),
    ModelClassRate("rmc2", 1400.0, amplitude=0.3, phase_s=0.4 / 3),
    ModelClassRate("rmc3", 900.0, amplitude=0.0, phase_s=0.8 / 3),
)


def _arrival_bits(queries, rng=None):
    times = np.array([q.arrival_s for q in queries], dtype=np.float64)
    bits = {
        "count": len(times),
        "times": hashlib.sha256(times.tobytes()).hexdigest(),
    }
    if rng is not None:
        bits["state"] = _state_sha256(rng.bit_generator)
    return bits


def _arrival_bits_payload():
    payload = {}
    for seed in range(3):
        poisson = PoissonLoadGenerator(2000.0, seed=seed)
        payload[f"poisson/seed{seed}"] = _arrival_bits(
            poisson.generate(0.5), poisson._rng
        )
        for name, spikes in (("diurnal", ()), ("diurnal_spiked", _ARRIVAL_SPIKES)):
            gen = DiurnalLoadGenerator(
                2000.0, amplitude=0.5, period_s=0.4, phase_s=0.05,
                spikes=spikes, seed=seed,
            )
            payload[f"{name}/seed{seed}"] = _arrival_bits(
                gen.generate(0.5), gen._rng
            )
        flat = DiurnalLoadGenerator(
            2000.0, amplitude=0.0, spikes=_ARRIVAL_SPIKES, seed=seed
        )
        payload[f"flat_spiked/seed{seed}"] = [
            _arrival_bits(flat.generate(duration_s), flat._rng)
            for duration_s in (0.4, 0.3)
        ]
        mixed = MixedModelLoadGenerator(
            _ARRIVAL_CLASSES, period_s=0.4, seed=seed
        ).generate(0.4)
        models = "\n".join(q.model for q in mixed)
        payload[f"mixed/seed{seed}"] = {
            **_arrival_bits(mixed),
            "models": hashlib.sha256(models.encode()).hexdigest(),
        }
    return payload


def test_arrival_bits_golden(golden):
    golden("arrival_bits", _arrival_bits_payload())


def test_fig09_colocation_golden(golden):
    result = fig09_colocation.run()
    models = sorted({c.model_name for c in result.cells})
    jobs = sorted({c.num_jobs for c in result.cells})
    payload = {
        "server": result.server_name,
        "batch_size": result.batch_size,
        "cells": {
            model: {
                str(n): {
                    "latency_ms": result.latency(model, n).total_seconds * 1e3,
                    "degradation": result.degradation(model, n),
                    "sls_share": result.sls_share(model, n),
                }
                for n in jobs
            }
            for model in models
        },
    }
    golden("fig09_colocation", payload)


def _fig11_payload(result):
    payload = {}
    for server_name, server in sorted(result.servers.items()):
        payload[server_name] = {
            "modes": server.modes,
            "pooled_count": int(server.pooled_samples_us.size),
            "p99_growth_small": server.p99_growth(server.curve_small),
            "p99_growth_large": server.p99_growth(server.curve_large),
            "curve_small_p99_us": [
                p.summary.p99 for p in server.curve_small
            ],
            "curve_large_p99_us": [
                p.summary.p99 for p in server.curve_large
            ],
        }
    return payload


def test_fig11_tail_latency_golden(golden):
    result = fig11_tail_latency.run(
        regimes=(1, 8),
        curve_jobs=(1, 8, 16),
        duration_s=0.15,
        seed=11,
    )
    golden("fig11_tail_latency", _fig11_payload(result))


# --- Exact-bit simulator golden ----------------------------------------------
#
# The Figure 11 golden rounds to 6 significant digits, so it cannot show
# that a change kept every bit. These two hash every ``InferenceRecord``
# field as float64/int64 bytes, plus the run's books, across each branch
# of ``ServingSimulator.run``, and every array of a short Figure 11 run.


_RECORD_FIELDS = (
    ("instance_id", np.int64),
    ("arrival_s", np.float64),
    ("start_s", np.float64),
    ("end_s", np.float64),
    ("active_jobs", np.int64),
    ("service_s", np.float64),
)


def _simulation_bits(result):
    digest = hashlib.sha256()
    for field, dtype in _RECORD_FIELDS:
        column = [getattr(r, field) for r in result.records]
        digest.update(np.array(column, dtype=dtype).tobytes())
    books = (result.offered, result.shed, result.killed, result.max_queue_depth)
    digest.update(np.array(books, dtype=np.int64).tobytes())
    # The layout keeps a float64 slot for replica downtime, which is 0.0 in
    # a simulator without faults, so the pinned digests carry over.
    digest.update(np.float64(0.0).tobytes())
    return {"records": len(result.records), "sha256": digest.hexdigest()}


def _simulator_bits_payload():
    def sim(server=BROADWELL, instances=4, **kwargs):
        return ServingSimulator(server, RMC2_SMALL, 32, instances, **kwargs)

    runs = {
        "closed_loop": sim(seed=1).run(0.05),
        "closed_loop/hyperthreading": sim(
            instances=6, hyperthreading=True, seed=2
        ).run(0.03),
        "open_loop": sim(SKYLAKE, per_instance_qps=90.0, seed=3).run(0.3),
    }
    return {name: _simulation_bits(result) for name, result in runs.items()}


def test_simulator_bits_golden(golden):
    golden("simulator_bits", _simulator_bits_payload())


def _fig11_bits(result):
    digest = hashlib.sha256()
    for name, server in sorted(result.servers.items()):
        digest.update(name.encode())
        digest.update(np.asarray(server.pooled_samples_us, np.float64).tobytes())
        digest.update(np.array([server.modes], dtype=np.int64).tobytes())
        for curve in (server.curve_small, server.curve_large):
            for point in curve:
                s = point.summary
                digest.update(
                    np.array([point.num_jobs, s.count], dtype=np.int64).tobytes()
                )
                digest.update(
                    np.array(
                        [s.mean, s.p5, s.p50, s.p95, s.p99, s.p999],
                        dtype=np.float64,
                    ).tobytes()
                )
    return digest.hexdigest()


def test_fig11_bits_golden(golden):
    golden(
        "fig11_bits",
        {
            f"seed{seed}": _fig11_bits(
                fig11_tail_latency.run(duration_s=0.05, seed=seed)
            )
            for seed in range(3)
        },
    )


# --- Exact-bit pricing golden ------------------------------------------------
#
# Every other golden sees the timing model only through an experiment, and
# rounds. This one hashes every ``OperatorTime`` field (names as UTF-8,
# floats as float64 bytes) and ``total_seconds``, both from
# ``model_latency`` and from ``op_time`` over ``config_ops``, for every
# production preset and a mixed-table config on every server, with and
# without near-memory SLS, across contention states, batches and hit
# ratios; plus direct points of the per-operator methods and each config's
# estimated co-runner traffic.

_PRICING_BATCHES = (1, 4, 32, 100, 512)
_PRICING_HITS = (None, 0.3)


def _ops_digest(digest, ops, total_s):
    for op in ops:
        digest.update(op.name.encode() + b"\0" + op.op_type.encode() + b"\0")
        digest.update(
            np.array(
                [op.seconds, op.compute_seconds, op.memory_seconds],
                dtype=np.float64,
            ).tobytes()
        )
    digest.update(np.float64(total_s).tobytes())


def _priced_bits(tm, config, state):
    by_model, by_op = hashlib.sha256(), hashlib.sha256()
    for batch in _PRICING_BATCHES:
        for hit in _PRICING_HITS:
            latency = tm.model_latency(config, batch, state, sls_hit_ratio=hit)
            _ops_digest(by_model, latency.per_op, latency.total_seconds)
            if hit is None:
                hit = (
                    0.0
                    if tm.nmp is not None
                    else tm.table_hit_ratio(config.embedding_storage_bytes())
                )
            ops = [tm.op_time(spec, batch, state, hit) for spec in config_ops(config)]
            _ops_digest(by_op, ops, sum(op.seconds for op in ops))
    return {"model_latency": by_model.hexdigest(), "op_time": by_op.hexdigest()}


def _direct_bits(tm, state):
    ops, values = [], []
    for batch in _PRICING_BATCHES:
        for weight_bytes in (64 * 1024, 1024 * 1024 + 2048, 9 * MB, 64 * MB):
            for op_type in (OP_FC, OP_BATCH_MATMUL):
                ops.append(tm.fc_time(
                    "fc", 2 * batch * weight_bytes // 4, weight_bytes,
                    batch * 4096, batch, state, op_type,
                ))
        for dim, dtype_bytes in ((8, 4), (32, 4), (64, 2), (128, 4)):
            values.append(tm.sls_hit_ns(dim, batch, state, dtype_bytes))
            values.append(tm.sls_miss_ns(dim, batch, state, dtype_bytes))
            for hit in (0.0, 0.3, 1.0):
                values.append(
                    tm.sls_lookup_ns(dim, batch, state, hit, dtype_bytes)
                )
        for op_type in (OP_CONCAT, OP_ACTIVATION):
            ops.append(tm.movement_time(
                "move", op_type, batch * 4096, batch * 1024, state
            ))
    digest = hashlib.sha256()
    _ops_digest(digest, ops, 0.0)
    digest.update(np.array(values, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _pricing_bits_payload():
    configs = [*PRODUCTION_PRESETS.values(), MIXED_TABLES]
    payload = {}
    for server in ALL_SERVERS:
        plain = TimingModel(server)
        traffic = [
            plain.estimate_random_traffic_gbps(config, batch)
            for config in configs
            for batch in _PRICING_BATCHES
        ]
        payload[f"traffic/{server.name}"] = hashlib.sha256(
            np.array(traffic, dtype=np.float64).tobytes()
        ).hexdigest()
        for name, state in _states(plain, RMC2_SMALL).items():
            payload[f"direct/{server.name}/{name}"] = _direct_bits(plain, state)
        for backend, geometry in (("host", None), ("nmp", NmpGeometry())):
            tm = TimingModel(server, nmp=geometry)
            for config in configs:
                for name, state in _states(tm, config).items():
                    key = f"{config.name}/{server.name}/{backend}/{name}"
                    payload[key] = _priced_bits(tm, config, state)
    return payload


def test_pricing_bits_golden(golden):
    golden("pricing_bits", _pricing_bits_payload())


def _fig11x_payload(result):
    return {
        "server": result.server_name,
        "model": result.model_name,
        "offered_qps": result.offered_qps,
        "sla_deadline_s": result.sla_deadline_s,
        "storm": {
            "crashes": len(result.storm.crashes),
            "stragglers": len(result.storm.stragglers),
            "bandwidth_faults": len(result.storm.bandwidth_faults),
        },
        "policies": {
            name: {
                "p50_s": outcome.summary.p50,
                "p99_s": outcome.summary.p99,
                "p999_s": outcome.summary.p999,
                "offered": outcome.stats.offered,
                "completed": outcome.stats.completed,
                "failed": outcome.stats.failed,
                "retries": outcome.stats.retries,
                "hedges": outcome.stats.hedges,
                "goodput_qps": outcome.stats.goodput_qps,
                "availability": outcome.stats.availability,
            }
            for name, outcome in sorted(result.outcomes.items())
        },
    }


def test_fig11x_faults_golden(golden):
    result = fig11x_faults.run(num_machines=4, duration_s=0.4, seed=11)
    golden("fig11x_faults", _fig11x_payload(result))


def _fig11y_payload(result):
    return {
        "server": result.server_name,
        "model": result.model_name,
        "capacity_qps": result.capacity_qps,
        "offered": result.offered,
        "sla_deadline_s": result.sla_deadline_s,
        "crowd_multiplier": result.crowd_multiplier,
        "policies": {
            name: {
                "p50_s": outcome.summary.p50,
                "p99_s": outcome.summary.p99,
                "completed": outcome.stats.completed,
                "failed": outcome.stats.failed,
                "goodput_qps": outcome.stats.goodput_qps,
                "shed": (
                    outcome.overload.shed
                    if outcome.overload is not None
                    else 0
                ),
                "breaker_opens": (
                    outcome.overload.breaker_opens
                    if outcome.overload is not None
                    else 0
                ),
                "brownout_switches": (
                    outcome.overload.brownout_switches
                    if outcome.overload is not None
                    else 0
                ),
                "max_queue_depth": (
                    outcome.overload.max_queue_depth
                    if outcome.overload is not None
                    else 0
                ),
            }
            for name, outcome in sorted(result.outcomes.items())
        },
    }


def test_fig11y_overload_golden(golden):
    result = fig11y_overload.run(duration_s=0.25, seed=11)
    golden("fig11y_overload", _fig11y_payload(result))


def _fig11z_payload(result):
    return {
        "server": result.server_name,
        "model": result.model_name,
        "num_machines": result.num_machines,
        "num_shards": result.num_shards,
        "offered_qps": result.offered_qps,
        "duration_s": result.duration_s,
        "sla_deadline_s": result.sla_deadline_s,
        "cells": {
            key: {
                "spread": cell.spread,
                "availability": cell.stats.availability,
                "p50_s": cell.summary.p50,
                "p99_s": cell.summary.p99,
                "offered": cell.stats.offered,
                "completed": cell.stats.completed,
                "failed": cell.stats.failed,
                "unresolved": cell.unresolved,
                "blackout_s": cell.blackout_s,
                "failover_s": cell.failover_s,
                "max_failover_hops": cell.max_failover_hops,
                "lost_tables": list(cell.lost_tables),
                "ndcg_at_k": cell.quality["ndcg_at_k"],
                "time_to_full_redundancy_s": cell.time_to_full_redundancy_s,
                "recovery_transfers": cell.recovery_transfers,
                "cold_reloads": cell.cold_reloads,
            }
            for key, cell in sorted(result.cells.items())
        },
    }


def test_fig11z_domains_golden(golden):
    result = fig11z_domains.run(duration_s=0.4, seed=11)
    golden("fig11z_domains", _fig11z_payload(result))


def test_fleet_day_golden(golden):
    # Scaled-down day (24-replica peak, 6 windows) so the golden runs in
    # seconds; the full-scale day lives in benchmarks/bench_des_replay.py.
    result = fleet_day.run(
        peak_replicas=24, windows=6, window_sim_s=0.02, seed=11
    )
    payload = {
        "server": result.server_name,
        "model": result.model_name,
        "batch_size": result.batch_size,
        "peak_replicas": result.peak_replicas,
        "machine_hours": result.machine_hours,
        "sla_deadline_s": result.sla_deadline_s,
        "incident": {
            "start_hour": result.incident.start_hour,
            "duration_hours": result.incident.duration_hours,
            "capacity_loss": result.incident.capacity_loss,
        },
        "totals": {
            "offered": result.total_offered,
            "completed": result.total_completed,
            "shed": result.total_shed,
            "failed": result.total_failed,
            "availability": result.availability,
        },
        "windows": [
            {
                "hour": w.hour,
                "replicas": w.replicas,
                "demand_items_per_s": w.demand_items_per_s,
                "offered": w.offered,
                "completed": w.completed,
                "failed": w.failed,
                "shed": w.shed,
                "breaker_opens": w.breaker_opens,
                "p50_s": w.summary.p50,
                "p99_s": w.summary.p99,
                "goodput_qps": w.goodput_qps,
            }
            for w in result.windows
        ],
    }
    golden("fleet_day", payload)


def _multimodel_payload(result):
    return {
        "replicas": list(result.replica_names),
        "models": list(result.model_names),
        "partition": list(result.partition),
        "mixed": result.mixed.summary(),
        "mixed_extras": {
            "hol_bypasses": result.mixed.hol_bypasses,
            "drain_claims": result.mixed.drain_claims,
            "busy_utilization": result.mixed.busy_utilization,
        },
        "static": {
            name: result.static_by_model[i].summary()
            for i, name in enumerate(result.model_names)
        },
        "static_throughput_qps": result.static_throughput_qps,
        "static_residency_utilization": result.static_residency_utilization,
    }


def test_multimodel_golden(golden):
    golden("multimodel", _multimodel_payload(figmm_multimodel.run()))


def _fignmp_payload(result):
    return {
        "server": result.server_name,
        "batch_size": result.batch_size,
        "num_ranks": result.geometry.num_ranks,
        "cells": {
            f"{cell.model_name}/{cell.trace_name}": {
                "unique_fraction": cell.unique_fraction,
                "sls_share": cell.sls_share,
                "baseline_seconds": cell.baseline_seconds,
                "nmp_seconds": cell.nmp_seconds,
                "amdahl_seconds": cell.amdahl_seconds,
                "hot_hit_ratio": cell.hot_hit_ratio,
                "rank_imbalance": cell.rank_imbalance,
                "engine_speedup": cell.engine_speedup,
                "amdahl_speedup": cell.amdahl_speedup,
            }
            for cell in result.cells
        },
        "fleet": {
            "projection_trace": result.fleet.projection_trace,
            "class_shares": dict(sorted(result.fleet.class_shares.items())),
            "class_speedups": dict(sorted(result.fleet.class_speedups.items())),
            "fleet_speedup": result.fleet.fleet_speedup,
            "cycles_returned": result.fleet.cycles_returned,
        },
    }


def test_fignmp_golden(golden):
    result = fignmp_near_memory.run(table_rows=100_000, trace_length=10_000)
    golden("fignmp", _fignmp_payload(result))


def test_fignmp_golden_engine_invariant(golden):
    # NMP replay's two loops are bit-identical by contract, so the
    # reference loop must reproduce the golden byte for byte.
    with reference_loops():
        result = fignmp_near_memory.run(table_rows=100_000, trace_length=10_000)
    golden("fignmp", _fignmp_payload(result))


# --- Routing policies not covered by the figure goldens ---------------------
#
# The figure-11 family and the fleet day pin ``jsq2`` only. This golden
# pins ``RequestRouter`` under every policy (including a generator reused
# across two runs and a bounded queue that sheds between service draws)
# and ``ResilientRouter`` under ``random`` and ``round_robin`` routing in a
# seeded fault storm. ``ResilientRouter.run`` and the router's test-only
# spec (``run_reference``) must both reproduce the same file.


def _latency_digest(latencies_s):
    summary = summarize(latencies_s)
    return {
        "count": summary.count,
        "mean_s": summary.mean,
        "p50_s": summary.p50,
        "p99_s": summary.p99,
        "max_s": float(np.max(latencies_s)),
        "first_s": [float(x) for x in latencies_s[:8]],
    }


def _request_router_payload():
    kwargs = dict(batch_size=16, num_machines=10)
    payload = {
        f"compare/{policy}": _latency_digest(result.latencies_s)
        for policy, result in compare_policies(
            BROADWELL, RMC1_SMALL, utilization=0.85, duration_s=0.1,
            seed=5, **kwargs,
        ).items()
    }
    for policy in POLICIES:
        router = RequestRouter(
            BROADWELL, RMC1_SMALL, policy=policy, seed=7, **kwargs
        )
        qps = 0.8 * router.max_stable_qps()
        for i in range(2):
            payload[f"reused/{policy}/run{i}"] = _latency_digest(
                router.run(qps, duration_s=0.05).latencies_s
            )
    return payload


def _resilient_routing_payload(run):
    num_machines, duration_s, seed = 6, 0.2, 13
    base_s = TimingModel(BROADWELL).model_latency(RMC1_SMALL, 8).total_seconds
    storm = fault_storm(num_machines, duration_s, seed=seed + 1)
    policy = ResiliencePolicy(
        timeout_s=30.0 * base_s,
        max_retries=2,
        backoff_base_s=base_s,
        hedge_delay_s=6.0 * base_s,
        health_check_interval_s=50.0 * base_s,
    )
    payload = {}
    for routing in ("random", "round_robin"):
        router = ResilientRouter(
            BROADWELL, RMC1_SMALL, 8, num_machines, policy=policy,
            routing=routing, seed=seed,
        )
        result = run(
            router, 0.5 * router.max_stable_qps(), duration_s, faults=storm
        )
        payload[f"resilient/{routing}"] = {
            **_latency_digest(result.latencies_s),
            "offered": result.offered,
            "failed": result.failed,
            "retries": result.retries,
            "hedges": result.hedges,
            "wasted_attempts": result.wasted_attempts,
            "fail_fasts": result.fail_fasts,
            "ejections": result.ejections,
        }
    return payload


def _routing_policies_payload(run):
    return {**_request_router_payload(), **_resilient_routing_payload(run)}


def test_routing_policies_golden(golden):
    golden("routing_policies", _routing_policies_payload(ResilientRouter.run))


def test_routing_policies_oracle_matches_golden(golden):
    golden("routing_policies", _routing_policies_payload(run_reference))
