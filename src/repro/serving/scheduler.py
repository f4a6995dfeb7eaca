"""Data-center scheduling: co-location sweeps and heterogeneous routing.

The paper's closing argument: micro-architectural diversity (frequency,
SIMD width, cache hierarchy, DRAM generation) "exposes scheduling
optimization opportunities" — pick the co-location degree per machine to
maximize latency-bounded throughput, and route each model class to the
server generation that suits it (Broadwell for latency-critical low-batch
work, Skylake for batched/high-co-location throughput).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config.model_config import ModelConfig
from ..hw.server import ServerSpec
from ..hw.timing import TimingModel
from .metrics import SLA, ThroughputPoint, latency_bounded_throughput


def colocation_sweep(
    server: ServerSpec,
    config: ModelConfig,
    batch_size: int,
    sla: SLA,
    max_jobs: int | None = None,
) -> list[ThroughputPoint]:
    """Latency/throughput frontier as co-location increases (Figure 10).

    Each point places ``n`` instances on one socket (closed loop, one per
    physical core) and reports per-inference latency and aggregate items/s.
    """
    timing = TimingModel(server)
    if max_jobs is None:
        max_jobs = server.cores_per_socket + server.cores_per_socket // 2
    points = []
    for n in range(1, max_jobs + 1):
        state = timing.colocation_state(config, batch_size, n)
        latency_s = timing.model_seconds(config, batch_size, state)
        points.append(
            ThroughputPoint(
                num_jobs=n,
                latency_s=latency_s,
                items_per_s=n * batch_size / latency_s,
                meets_sla=latency_s <= sla.deadline_s,
            )
        )
    return points


@dataclass(frozen=True)
class PlacementDecision:
    """The scheduler's choice for one (model, server) pair."""

    server_name: str
    model_name: str
    batch_size: int
    num_jobs: int
    latency_s: float
    items_per_s: float


def best_placement(
    server: ServerSpec,
    config: ModelConfig,
    batch_size: int,
    sla: SLA,
    max_jobs: int | None = None,
) -> PlacementDecision | None:
    """Highest-throughput SLA-feasible co-location degree on one server."""
    points = colocation_sweep(server, config, batch_size, sla, max_jobs)
    best = latency_bounded_throughput(points)
    if best is None:
        return None
    return PlacementDecision(
        server_name=server.name,
        model_name=config.name,
        batch_size=batch_size,
        num_jobs=best.num_jobs,
        latency_s=best.latency_s,
        items_per_s=best.items_per_s,
    )


def route_to_best_server(
    servers: list[ServerSpec],
    config: ModelConfig,
    batch_size: int,
    sla: SLA,
) -> PlacementDecision | None:
    """Pick the server generation maximizing latency-bounded throughput.

    This is the heterogeneity-aware scheduling the paper motivates: the
    answer differs by model class, batch size and SLA strictness.
    """
    decisions = []
    for server in servers:
        decision = best_placement(server, config, batch_size, sla)
        if decision is not None:
            decisions.append(decision)
    if not decisions:
        return None
    return max(decisions, key=lambda d: d.items_per_s)
