"""Cluster-level scheduling across heterogeneous server generations.

The paper's introduction promises that its characterization "can be used to
maximize latency-bounded throughput by exploiting server heterogeneity when
scheduling inference requests". This module makes that concrete: a cluster
holds machines of several generations (Table II co-exist in production),
demand arrives as a weighted mix of model classes with SLAs, and a
scheduler decides which machines serve which models.

Two policies are compared:

* :func:`blind_capacity` — heterogeneity-blind: every machine serves the
  whole demand mix in proportion (what a generation-agnostic router does);
* :func:`aware_capacity` — heterogeneity-aware: a linear program assigns
  machine time to model classes to maximize the jointly-served demand
  scale, naturally routing memory-bound models to Skylake and
  latency-critical low-batch work to Broadwell.

Per-(machine, model) serving rates come from the SLA-optimal co-location
placement (:func:`repro.serving.scheduler.best_placement`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config.model_config import ModelConfig
from ..hw.server import ServerSpec
from .metrics import SLA
from .scheduler import best_placement


@dataclass(frozen=True)
class MachinePool:
    """Machines of one server generation."""

    server: ServerSpec
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("pool needs at least one machine")


@dataclass(frozen=True)
class WorkloadDemand:
    """One model class's share of cluster demand.

    Attributes:
        config: the model served.
        batch_size: serving batch.
        sla: latency bound for this service.
        weight: relative share of total demand (items/s); weights are
            normalized across the demand set.
    """

    config: ModelConfig
    batch_size: int
    sla: SLA
    weight: float

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("demand weight must be positive")


@dataclass(frozen=True)
class ClusterPlan:
    """Outcome of a scheduling policy on one cluster + demand mix.

    Attributes:
        policy: policy name.
        served_scale: the largest demand multiple lambda such that every
            demand d receives at least ``lambda x weight_d`` items/s.
        assignment: fraction of each pool's machine time per demand,
            ``assignment[pool_index][demand_index]``.
    """

    policy: str
    served_scale: float
    assignment: tuple[tuple[float, ...], ...]


def _rate_matrix(
    pools: list[MachinePool], demands: list[WorkloadDemand]
) -> np.ndarray:
    """items/s one machine of each pool sustains per demand (0 = infeasible)."""
    rates = np.zeros((len(pools), len(demands)))
    for i, pool in enumerate(pools):
        for j, demand in enumerate(demands):
            decision = best_placement(
                pool.server, demand.config, demand.batch_size, demand.sla
            )
            if decision is not None:
                rates[i, j] = decision.items_per_s
    return rates


def _normalized_weights(demands: list[WorkloadDemand]) -> np.ndarray:
    weights = np.array([d.weight for d in demands], dtype=np.float64)
    return weights / weights.sum()


def blind_capacity(
    pools: list[MachinePool], demands: list[WorkloadDemand]
) -> ClusterPlan:
    """Heterogeneity-blind serving: every machine runs the full mix.

    Each machine dedicates the demand's weight share of its time to that
    demand, regardless of how well its generation suits the model.
    """
    if not pools or not demands:
        raise ValueError("need at least one pool and one demand")
    rates = _rate_matrix(pools, demands)
    weights = _normalized_weights(demands)
    counts = np.array([p.count for p in pools], dtype=np.float64)
    served = weights * (counts @ rates)  # served items/s per demand
    with np.errstate(divide="ignore"):
        scale = float(np.min(np.where(weights > 0, served / weights, np.inf)))
    assignment = tuple(tuple(weights.tolist()) for _ in pools)
    return ClusterPlan(policy="blind", served_scale=scale, assignment=assignment)


def aware_capacity(
    pools: list[MachinePool], demands: list[WorkloadDemand]
) -> ClusterPlan:
    """Heterogeneity-aware serving via a linear program.

    Variables: x[i][j] = fraction of pool i's machine time on demand j,
    plus the served scale lambda. Maximize lambda subject to
    ``sum_i count_i x_ij rate_ij >= lambda * weight_j`` and
    ``sum_j x_ij <= 1``. Needs scipy, imported here so that importing
    :mod:`repro` does not load it.
    """
    from scipy.optimize import linprog

    if not pools or not demands:
        raise ValueError("need at least one pool and one demand")
    rates = _rate_matrix(pools, demands)
    weights = _normalized_weights(demands)
    counts = np.array([p.count for p in pools], dtype=np.float64)
    n_pools, n_demands = rates.shape
    n_x = n_pools * n_demands

    # Objective: maximize lambda  (linprog minimizes).
    c = np.zeros(n_x + 1)
    c[-1] = -1.0

    # Demand constraints: lambda * w_j - sum_i count_i rate_ij x_ij <= 0.
    a_ub = np.zeros((n_demands + n_pools, n_x + 1))
    b_ub = np.zeros(n_demands + n_pools)
    for j in range(n_demands):
        for i in range(n_pools):
            a_ub[j, i * n_demands + j] = -counts[i] * rates[i, j]
        a_ub[j, -1] = weights[j]
    # Pool time budgets: sum_j x_ij <= 1.
    for i in range(n_pools):
        a_ub[n_demands + i, i * n_demands : (i + 1) * n_demands] = 1.0
        b_ub[n_demands + i] = 1.0

    bounds = [(0, 1)] * n_x + [(0, None)]
    result = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not result.success:
        raise RuntimeError(f"scheduling LP failed: {result.message}")
    # Clip solver round-off (tiny negatives) out of the assignment.
    x = np.clip(result.x[:n_x], 0.0, 1.0).reshape(n_pools, n_demands)
    return ClusterPlan(
        policy="aware",
        served_scale=float(result.x[-1]),
        assignment=tuple(tuple(row.tolist()) for row in x),
    )


def heterogeneity_gain(
    pools: list[MachinePool], demands: list[WorkloadDemand]
) -> float:
    """Throughput multiplier of aware over blind scheduling."""
    blind = blind_capacity(pools, demands).served_scale
    aware = aware_capacity(pools, demands).served_scale
    if blind <= 0:
        return float("inf") if aware > 0 else 1.0
    return aware / blind


def survivable_capacity(
    pools: list[MachinePool],
    demands: list[WorkloadDemand],
    failures: list[int] | tuple[int, ...],
) -> ClusterPlan:
    """Aware-scheduled capacity after losing machines from each pool.

    ``failures[i]`` machines of pool ``i`` are down (a rack loss, a bad
    kernel rollout on one generation). Returns the re-optimized plan over
    the survivors; a fully dead cluster serves scale 0.
    """
    if len(failures) != len(pools):
        raise ValueError("need one failure count per pool")
    surviving: list[MachinePool] = []
    for pool, lost in zip(pools, failures):
        if lost < 0:
            raise ValueError("failure counts must be non-negative")
        if lost > pool.count:
            raise ValueError(
                f"cannot lose {lost} machines from a pool of {pool.count}"
            )
        if pool.count - lost >= 1:
            surviving.append(MachinePool(pool.server, pool.count - lost))
    if not surviving:
        return ClusterPlan(policy="aware-survivable", served_scale=0.0, assignment=())
    plan = aware_capacity(surviving, demands)
    return ClusterPlan(
        policy="aware-survivable",
        served_scale=plan.served_scale,
        assignment=plan.assignment,
    )


def worst_single_pool_loss(
    pools: list[MachinePool],
    demands: list[WorkloadDemand],
    lost_machines: int = 1,
) -> float:
    """Worst-case served scale after ``lost_machines`` die in any one pool.

    The N+k provisioning question: the scale a planner can still promise
    when any single generation loses that many machines at once.
    """
    if lost_machines < 0:
        raise ValueError("lost_machines must be non-negative")
    worst = float("inf")
    for i, pool in enumerate(pools):
        failures = [0] * len(pools)
        failures[i] = min(lost_machines, pool.count)
        worst = min(worst, survivable_capacity(pools, demands, failures).served_scale)
    return worst


def domain_failures(
    pools: list[MachinePool],
    topology,
    kind: str,
    domain_id: int,
) -> list[int]:
    """Per-pool machine-loss counts when one failure domain dies.

    Machines are indexed globally pool-by-pool in order (pool 0 holds
    replicas ``0..count0-1`` of the topology, and so on), so the
    topology's replica→domain assignment decides which pools the domain
    cuts across — the correlated-loss shape pool-granularity math
    cannot express.
    """
    total = sum(pool.count for pool in pools)
    if topology.num_replicas != total:
        raise ValueError(
            f"topology covers {topology.num_replicas} replicas, pools "
            f"hold {total} machines"
        )
    victims = set(topology.replicas_in(kind, domain_id))
    failures = []
    first = 0
    for pool in pools:
        failures.append(
            sum(1 for r in range(first, first + pool.count) if r in victims)
        )
        first += pool.count
    return failures


def domain_survivable_capacity(
    pools: list[MachinePool],
    demands: list[WorkloadDemand],
    topology,
    kind: str,
    domain_id: int,
) -> ClusterPlan:
    """Aware-scheduled capacity after one failure domain dies.

    The domain-granularity sibling of :func:`survivable_capacity`:
    instead of assuming losses align with generation pools, the blast
    radius comes from a :class:`~repro.serving.domains.FleetTopology`.
    With a one-rack-per-pool topology this reduces exactly to the
    whole-pool loss of the pool-granularity path (cross-checked in
    tests).
    """
    return survivable_capacity(
        pools, demands, domain_failures(pools, topology, kind, domain_id)
    )


def worst_single_domain_loss(
    pools: list[MachinePool],
    demands: list[WorkloadDemand],
    topology,
    kind: str,
) -> float:
    """Worst-case served scale after any single domain of ``kind`` dies.

    The domain-granularity sibling of :func:`worst_single_pool_loss`:
    the scale a planner can still promise when any one host, rack or
    zone goes dark at once.
    """
    worst = float("inf")
    for domain_id in range(topology.num_domains(kind)):
        worst = min(
            worst,
            domain_survivable_capacity(
                pools, demands, topology, kind, domain_id
            ).served_scale,
        )
    return worst
