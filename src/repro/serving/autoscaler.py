"""Reactive autoscaling of inference replicas under diurnal load.

Recommendation traffic follows the day/night cycle; capacity planners trade
machine-hours against SLA violations. This simulator sweeps a reactive
policy — keep utilization near a target by adding/removing replicas with a
provisioning delay — over a sinusoidal diurnal load and reports both costs,
using the timing model's per-replica capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ..config.model_config import ModelConfig
from ..hw.server import ServerSpec
from ..hw.timing import TimingModel


@dataclass(frozen=True)
class DiurnalLoad:
    """Sinusoidal daily demand in items/s.

    Attributes:
        peak_items_per_s: demand at the daily maximum.
        trough_ratio: trough demand as a fraction of the peak.
        period_hours: cycle length (24 for a day).
    """

    peak_items_per_s: float
    trough_ratio: float = 0.35
    period_hours: float = 24.0

    def __post_init__(self) -> None:
        if self.peak_items_per_s <= 0:
            raise ValueError("peak demand must be positive")
        if not 0.0 < self.trough_ratio <= 1.0:
            raise ValueError("trough_ratio must be in (0, 1]")

    def at(self, hour: float) -> float:
        """Demand at a given hour (peak at hour period/2)."""
        mid = (self.peak_items_per_s * (1 + self.trough_ratio)) / 2
        amplitude = (self.peak_items_per_s * (1 - self.trough_ratio)) / 2
        phase = 2 * math.pi * (hour / self.period_hours)
        return mid - amplitude * math.cos(phase)


@dataclass(frozen=True)
class AutoscaleStep:
    """One simulation tick."""

    hour: float
    demand_items_per_s: float
    replicas: int
    utilization: float
    sla_ok: bool


@dataclass(frozen=True)
class AutoscaleResult:
    """Outcome of one policy run."""

    steps: list[AutoscaleStep]
    replica_capacity: float

    @property
    def machine_hours(self) -> float:
        """Total replica-hours consumed."""
        if len(self.steps) < 2:
            return 0.0
        dt = self.steps[1].hour - self.steps[0].hour
        return sum(s.replicas for s in self.steps) * dt

    @property
    def violation_fraction(self) -> float:
        """Fraction of ticks where the SLA-safe utilization was exceeded."""
        return sum(not s.sla_ok for s in self.steps) / len(self.steps)

    @property
    def peak_replicas(self) -> int:
        """Largest fleet size reached."""
        return max(s.replicas for s in self.steps)


class Autoscaler:
    """Reactive target-utilization policy with provisioning lag.

    Args:
        server / config / batch_size: define per-replica capacity (items/s
            at the model's closed-loop rate).
        target_utilization: desired demand/capacity ratio.
        sla_utilization: utilization above which queueing blows the SLA.
        provision_delay_hours: lag before a scale-up decision takes effect.
        min_replicas: floor on the fleet.
    """

    def __init__(
        self,
        server: ServerSpec,
        config: ModelConfig,
        batch_size: int = 32,
        target_utilization: float = 0.6,
        sla_utilization: float = 0.85,
        provision_delay_hours: float = 0.25,
        min_replicas: int = 1,
    ) -> None:
        if not 0 < target_utilization < sla_utilization <= 1.0:
            raise ValueError("need 0 < target < sla_utilization <= 1")
        if min_replicas < 1:
            raise ValueError("min_replicas must be positive")
        self.replica_capacity = batch_size / TimingModel(server).model_seconds(
            config, batch_size
        )
        self.target_utilization = target_utilization
        self.sla_utilization = sla_utilization
        self.provision_delay_hours = provision_delay_hours
        self.min_replicas = min_replicas

    def replicas_for(self, demand: float) -> int:
        """Fleet size putting utilization at the target."""
        needed = demand / (self.replica_capacity * self.target_utilization)
        return max(self.min_replicas, math.ceil(needed))

    def run(
        self,
        load: DiurnalLoad,
        hours: float = 24.0,
        tick_hours: float = 0.1,
        healthy_fraction: Callable[[float], float] | None = None,
    ) -> AutoscaleResult:
        """Simulate the reactive policy over ``hours`` of load.

        Args:
            load: the diurnal demand curve.
            hours / tick_hours: horizon and tick.
            healthy_fraction: optional ``hour -> fraction in (0, 1]`` of
                provisioned replicas actually serving (the fault feed, e.g.
                :meth:`repro.experiments.fleet_day.DayIncident.healthy_fraction`).
                The reactive policy sees the same signal and over-provisions
                to compensate, after the provisioning delay.
        """
        if hours <= 0 or tick_hours <= 0:
            raise ValueError("hours and tick must be positive")
        steps: list[AutoscaleStep] = []
        # Pending scale-ups: (effective_hour, replica_count_target).
        pending: list[tuple[float, int]] = []
        replicas = self.replicas_for(load.at(0.0))
        t = 0.0
        while t < hours:
            demand = load.at(t)
            healthy = 1.0 if healthy_fraction is None else float(healthy_fraction(t))
            if not 0.0 < healthy <= 1.0:
                raise ValueError("healthy_fraction must return values in (0, 1]")
            desired = math.ceil(self.replicas_for(demand) / healthy)
            if desired > replicas:
                effective = t + self.provision_delay_hours
                if not pending or pending[-1][1] < desired:
                    pending.append((effective, desired))
            elif desired < replicas:
                replicas = max(desired, self.min_replicas)  # scale-down is fast
                pending = [p for p in pending if p[1] > replicas]
            while pending and pending[0][0] <= t:
                replicas = max(replicas, pending.pop(0)[1])
            serving_replicas = replicas * healthy
            utilization = demand / (serving_replicas * self.replica_capacity)
            steps.append(
                AutoscaleStep(
                    hour=t,
                    demand_items_per_s=demand,
                    replicas=replicas,
                    utilization=utilization,
                    sla_ok=utilization <= self.sla_utilization,
                )
            )
            t += tick_hours
        return AutoscaleResult(steps=steps, replica_capacity=self.replica_capacity)


def static_provisioning(
    autoscaler: Autoscaler, load: DiurnalLoad, hours: float = 24.0,
    tick_hours: float = 0.1,
) -> AutoscaleResult:
    """Baseline: provision for the peak and never scale."""
    replicas = autoscaler.replicas_for(load.peak_items_per_s)
    steps = []
    t = 0.0
    while t < hours:
        demand = load.at(t)
        utilization = demand / (replicas * autoscaler.replica_capacity)
        steps.append(
            AutoscaleStep(
                hour=t,
                demand_items_per_s=demand,
                replicas=replicas,
                utilization=utilization,
                sla_ok=utilization <= autoscaler.sla_utilization,
            )
        )
        t += tick_hours
    return AutoscaleResult(steps=steps, replica_capacity=autoscaler.replica_capacity)
