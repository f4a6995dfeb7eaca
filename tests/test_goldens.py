"""Golden-output regression tests for key experiments.

Each test reduces an experiment to a canonical JSON payload (floats rounded
to 6 significant digits) and compares it against a checked-in golden.
Refresh after intentional model changes with::

    PYTHONPATH=src python -m pytest tests/test_goldens.py --update-goldens
"""

import numpy as np

from repro.analysis.distributions import summarize
from repro.config import RMC1_SMALL
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
from repro.hw import BROADWELL, TimingModel
from repro.serving.faults import ResiliencePolicy, ResilientRouter, fault_storm
from repro.serving.router import POLICIES, RequestRouter, compare_policies
from tests.oracles.resilient_router import run_reference
from tests.reference_loops import reference_loops


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
    with reference_loops():
        result = fig11_tail_latency.run(
            regimes=(1, 8),
            curve_jobs=(1, 8, 16),
            duration_s=0.15,
            seed=11,
        )
    golden("fig11_tail_latency", _fig11_payload(result))


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


# --- Loop byte-identity against the checked-in goldens ---------------------
#
# The Figure 11 golden above runs the simulator's reference loop. Running
# it by default (the C kernel, when it loads) must reproduce the same
# golden byte for byte — the two loops are one model. Figures 9, 10 and 14
# contain no DES (analytic roofline sweeps and a cache trace), and the
# router-driven figures run the router's single event loop, so their
# goldens above already cover every loop.


def test_fig11_vectorized_engine_matches_golden(golden):
    result = fig11_tail_latency.run(
        regimes=(1, 8),
        curve_jobs=(1, 8, 16),
        duration_s=0.15,
        seed=11,
    )
    golden("fig11_tail_latency", _fig11_payload(result))


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
    bounded = RequestRouter(
        BROADWELL, RMC1_SMALL, policy="jsq2", seed=9, queue_capacity=2,
        **kwargs,
    )
    result = bounded.run(1.2 * bounded.max_stable_qps(), duration_s=0.05)
    payload["bounded/jsq2"] = {
        **_latency_digest(result.latencies_s),
        "shed": result.shed,
        "max_queue_depth": result.max_queue_depth,
    }
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
