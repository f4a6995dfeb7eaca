"""Routing-policy bench: tail latency across replicated inference servers."""

from conftest import emit

from repro.analysis import format_table
from repro.config import RMC1_SMALL
from repro.hw import BROADWELL
from repro.serving import POLICIES, ResilientRouter


def run_policies():
    """Every routing policy at 85% load on 10 Broadwell RMC1 replicas."""
    results = {}
    for policy in POLICIES:
        router = ResilientRouter(
            BROADWELL, RMC1_SMALL, batch_size=16, num_machines=10,
            routing=policy, seed=5,
        )
        results[policy] = router.run(
            0.85 * router.max_stable_qps(), duration_s=2.0
        )
    return results


def test_request_routing(benchmark):
    results = benchmark.pedantic(run_policies, iterations=1, rounds=1)
    rows = []
    for policy, result in results.items():
        summary = result.summary()
        rows.append(
            [
                policy,
                f"{summary.p50 * 1e3:.2f}",
                f"{summary.p95 * 1e3:.2f}",
                f"{summary.p99 * 1e3:.2f}",
                f"{result.throughput_qps():,.0f}",
            ]
        )
    emit(
        "Request routing at 85% utilization (10 Broadwell replicas, RMC1)",
        format_table(["policy", "p50 ms", "p95 ms", "p99 ms", "qps"], rows),
    )
    assert results["jsq2"].summary().p99 < results["random"].summary().p99
