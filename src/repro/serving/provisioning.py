"""Cost-optimal fleet provisioning across server generations.

The buying-side counterpart of :mod:`repro.serving.cluster`: given the
demand mix, per-generation machine costs (capex+power amortized to a
$/machine-hour figure), and the per-(generation, model) serving rates,
choose how many machines of each generation to buy so the demand is met at
minimum cost. A linear program over machine counts and time assignments;
counts are then rounded up to integers (the classic LP-relaxation bound:
the integral solution costs at most one extra machine per pool).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import WorkloadDemand, _normalized_weights, _rate_matrix
from ..hw.server import ServerSpec


@dataclass(frozen=True)
class PricedGeneration:
    """One purchasable server generation."""

    server: ServerSpec
    cost_per_hour: float

    def __post_init__(self) -> None:
        if self.cost_per_hour <= 0:
            raise ValueError("cost must be positive")


#: Representative relative hourly costs (newer generations cost more).
DEFAULT_PRICES = {"Haswell": 0.7, "Broadwell": 1.0, "Skylake": 1.3}


@dataclass(frozen=True)
class ProvisioningPlan:
    """A purchase recommendation."""

    machine_counts: dict[str, int]
    fractional_counts: dict[str, float]
    cost_per_hour: float
    demand_items_per_s: float

    @property
    def total_machines(self) -> int:
        """Machines across all generations."""
        return sum(self.machine_counts.values())


def provision_min_cost(
    generations: list[PricedGeneration],
    demands: list[WorkloadDemand],
    total_items_per_s: float,
) -> ProvisioningPlan:
    """Minimum-cost machine mix serving ``total_items_per_s`` of the mix.

    Variables: y[i][j] — machine-equivalents of generation i dedicated to
    demand j. Minimize ``sum_i cost_i * sum_j y_ij`` subject to
    ``sum_i y_ij rate_ij >= total * weight_j``. Needs scipy, imported here
    so that importing :mod:`repro` does not load it.
    """
    from scipy.optimize import linprog

    if total_items_per_s <= 0:
        raise ValueError("demand must be positive")
    if not generations or not demands:
        raise ValueError("need generations and demands")
    from .cluster import MachinePool

    pools = [MachinePool(g.server, 1) for g in generations]
    rates = _rate_matrix(pools, demands)
    weights = _normalized_weights(demands)
    n_gen, n_dem = rates.shape

    c = np.repeat([g.cost_per_hour for g in generations], n_dem)
    a_ub = np.zeros((n_dem, n_gen * n_dem))
    b_ub = np.zeros(n_dem)
    for j in range(n_dem):
        for i in range(n_gen):
            a_ub[j, i * n_dem + j] = -rates[i, j]
        b_ub[j] = -total_items_per_s * weights[j]

    result = linprog(
        c, A_ub=a_ub, b_ub=b_ub, bounds=[(0, None)] * (n_gen * n_dem),
        method="highs",
    )
    if not result.success:
        raise RuntimeError(
            "provisioning LP infeasible — is some demand unservable under "
            f"its SLA? ({result.message})"
        )
    y = result.x.reshape(n_gen, n_dem)
    fractional = {
        g.server.name: float(y[i].sum()) for i, g in enumerate(generations)
    }
    counts = {name: int(np.ceil(v - 1e-9)) for name, v in fractional.items()}
    cost = sum(
        counts[g.server.name] * g.cost_per_hour for g in generations
    )
    return ProvisioningPlan(
        machine_counts=counts,
        fractional_counts=fractional,
        cost_per_hour=cost,
        demand_items_per_s=total_items_per_s,
    )


def single_generation_cost(
    generation: PricedGeneration,
    demands: list[WorkloadDemand],
    total_items_per_s: float,
) -> float | None:
    """Hourly cost of serving everything on one generation (None if it
    cannot meet some demand's SLA)."""
    plan_input = [generation]
    try:
        plan = provision_min_cost(plan_input, demands, total_items_per_s)
    except RuntimeError:
        return None
    return plan.cost_per_hour
