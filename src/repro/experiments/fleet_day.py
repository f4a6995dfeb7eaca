"""Figure fleet (extension): a full diurnal day at production fleet scale.

The serving figures so far stress a handful of replicas for a fraction of
a second — enough to expose mechanisms, far short of the operating point
the paper describes (thousands of machines, diurnal load, millions of
users). This experiment closes that gap with the fleet router's
O(1)-state event loop: a reactive autoscaler tracks a sinusoidal day of
demand (plus a seeded capacity incident it must over-provision around),
and each sampled window of the day is served by a
:class:`ResilientRouter` sized to the autoscaler's fleet at that hour,
with the full overload-protection stack (deadline-aware admission,
CoDel, per-replica breakers, brownout) and a per-window fault storm
composed on top.

Every window draws its arrivals, service noise, and faults from seeds
derived from the experiment seed, so the day is reproducible
record-for-record. At the default scale (~1050 replicas at peak, 48
windows) the day offers well over a million requests; per-event O(M)
fleet scans would make that take hours, so the router keeps its fleet
state incrementally instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..analysis.distributions import LatencySummary
from ..analysis.tables import format_table
from ..config.model_config import ModelConfig
from ..config.presets import RMC1_SMALL
from ..hw.server import BROADWELL, ServerSpec
from ..hw.timing import TimingModel
from ..obs.metrics import MetricsRegistry
from ..serving.autoscaler import Autoscaler, DiurnalLoad
from ..serving.faults import ResiliencePolicy, ResilientRouter, fault_storm
from ..serving.metrics import SLA, check_conservation
from ..serving.overload import (
    AdmissionPolicy,
    BreakerPolicy,
    BrownoutPolicy,
    OverloadConfig,
    default_brownout_tiers,
)


@dataclass(frozen=True)
class DayIncident:
    """A seeded capacity incident the autoscaler must ride through."""

    start_hour: float
    duration_hours: float
    capacity_loss: float

    def healthy_fraction(self, hour: float) -> float:
        """Fraction of provisioned replicas serving at ``hour``."""
        if self.start_hour <= hour < self.start_hour + self.duration_hours:
            return 1.0 - self.capacity_loss
        return 1.0


@dataclass(frozen=True)
class WindowStats:
    """One sampled serving window of the day."""

    hour: float
    demand_items_per_s: float
    replicas: int
    offered: int
    completed: int
    failed: int
    shed: int
    breaker_opens: int
    summary: LatencySummary
    goodput_qps: float


@dataclass(frozen=True)
class FleetDayResult:
    """A day of fleet-scale serving, window by window."""

    server_name: str
    model_name: str
    batch_size: int
    #: Always ``"vectorized"``: the router has one event loop. The field
    #: stays because the benchmark's pinned ``fleet_peak`` digests
    #: (``perfbench/expected_digests.json``) hash every field of this result.
    engine: str
    peak_replicas: int
    machine_hours: float
    window_sim_s: float
    sla_deadline_s: float
    incident: DayIncident
    windows: list[WindowStats]

    @property
    def total_offered(self) -> int:
        """Requests offered across every simulated window."""
        return sum(w.offered for w in self.windows)

    @property
    def total_completed(self) -> int:
        """Requests answered (possibly degraded) across the day."""
        return sum(w.completed for w in self.windows)

    @property
    def total_shed(self) -> int:
        """Requests shed by admission control / CoDel across the day."""
        return sum(w.shed for w in self.windows)

    @property
    def total_failed(self) -> int:
        """Requests that exhausted retries across the day."""
        return sum(w.failed for w in self.windows)

    @property
    def availability(self) -> float:
        """Completed fraction of offered load over the day."""
        offered = self.total_offered
        return self.total_completed / offered if offered else 1.0


def _full_stack(
    base_service_s: float,
    config: ModelConfig,
    sla_deadline_s: float,
    queue_capacity: int,
) -> tuple[ResiliencePolicy, OverloadConfig]:
    """The figure-11y protection ladder's top rung, service-time scaled."""
    policy = ResiliencePolicy(
        timeout_s=30.0 * base_service_s,
        max_retries=1,
        backoff_base_s=base_service_s,
    )
    overload = OverloadConfig(
        admission=AdmissionPolicy(
            queue_capacity=queue_capacity,
            shed_policy="deadline_aware",
            deadline_s=sla_deadline_s,
            codel_target_s=8.0 * base_service_s,
            codel_interval_s=40.0 * base_service_s,
        ),
        breaker=BreakerPolicy(
            failure_threshold=5,
            window_s=60.0 * base_service_s,
            open_duration_s=100.0 * base_service_s,
            half_open_probes=2,
        ),
        brownout=BrownoutPolicy(
            tiers=default_brownout_tiers(config),
            step_up_depth=6.0,
            step_down_depth=1.0,
            dwell_s=20.0 * base_service_s,
        ),
    )
    return policy, overload


def run(
    server: ServerSpec = BROADWELL,
    config: ModelConfig = RMC1_SMALL,
    batch_size: int = 8,
    peak_replicas: int = 1050,
    windows: int = 48,
    window_sim_s: float = 0.005,
    target_utilization: float = 0.6,
    trough_ratio: float = 0.35,
    queue_capacity: int = 16,
    sla_deadline_factor: float = 25.0,
    seed: int = 17,
    metrics: MetricsRegistry | None = None,
    hours: tuple[float, ...] | None = None,
) -> FleetDayResult:
    """Serve one seeded diurnal day across an autoscaled fleet.

    Args:
        server / config / batch_size: the replicated service; each request
            is one batch of ``batch_size`` items.
        peak_replicas: fleet size the autoscaler reaches at the daily
            peak (sets the peak demand; the seeded incident can push the
            actual peak above this).
        windows: evenly spaced serving windows sampled over the 24 h day.
        window_sim_s: simulated horizon of each window (the window's
            offered load is its hour's demand held for this long).
        target_utilization: autoscaler demand/capacity target.
        trough_ratio: overnight demand as a fraction of the peak.
        queue_capacity: per-replica admission queue bound.
        sla_deadline_factor: SLA deadline as a multiple of the
            uncontended service time.
        seed: master seed; windows derive arrival/fault seeds from it.
        metrics: optional registry each window records into, labelled
            ``hour=<hour>``.
        hours: optional subset of window start hours to simulate (e.g.
            the windows around the daily peak); default all windows.
    """
    if windows < 1:
        raise ValueError("need at least one window")
    if window_sim_s <= 0:
        raise ValueError("window_sim_s must be positive")
    base_service_s = TimingModel(server).model_seconds(config, batch_size)
    sla = SLA(deadline_s=sla_deadline_factor * base_service_s, percentile=0.99)
    policy, overload = _full_stack(
        base_service_s, config, sla.deadline_s, queue_capacity
    )

    autoscaler = Autoscaler(
        server,
        config,
        batch_size=batch_size,
        target_utilization=target_utilization,
    )
    # Peak demand sized so the autoscaler's peak fleet is peak_replicas.
    load = DiurnalLoad(
        peak_items_per_s=(
            peak_replicas * target_utilization * autoscaler.replica_capacity
        ),
        trough_ratio=trough_ratio,
    )
    # One seeded incident (a pod/zone loss) somewhere in the waking day;
    # the autoscaler sees the capacity signal and over-provisions around
    # it after its provisioning delay.
    incident_rng = np.random.default_rng(seed + 2)
    incident = DayIncident(
        start_hour=float(incident_rng.uniform(6.0, 20.0)),
        duration_hours=float(incident_rng.uniform(0.5, 2.0)),
        capacity_loss=float(incident_rng.uniform(0.05, 0.20)),
    )
    tick_hours = 24.0 / windows
    trajectory = autoscaler.run(
        load,
        hours=24.0,
        tick_hours=tick_hours,
        healthy_fraction=incident.healthy_fraction,
    )

    window_stats: list[WindowStats] = []
    for w, step in enumerate(trajectory.steps):
        if hours is not None and step.hour not in hours:
            continue
        offered_qps = step.demand_items_per_s / batch_size
        storm = fault_storm(step.replicas, window_sim_s, seed=seed + 100 + w)
        router = ResilientRouter(
            server,
            config,
            batch_size,
            num_machines=step.replicas,
            policy=policy,
            overload=overload,
            seed=seed + w,
            metrics=metrics,
            metrics_labels={"hour": f"{step.hour:g}"},
        )
        result = router.run(
            offered_qps=offered_qps,
            duration_s=window_sim_s,
            faults=storm,
            sla=sla,
        )
        stats = result.stats()
        shed = result.overload.shed if result.overload is not None else 0
        opens = (
            result.overload.breaker_opens if result.overload is not None else 0
        )
        # Router-level conservation: shed attempts roll up into failed
        # (or retried-then-completed) requests, so the request-level books
        # are offered = completed + failed + in-flight.
        check_conservation(
            offered=stats.offered,
            completed=stats.completed,
            failed=stats.failed,
        )
        window_stats.append(
            WindowStats(
                hour=step.hour,
                demand_items_per_s=step.demand_items_per_s,
                replicas=step.replicas,
                offered=stats.offered,
                completed=stats.completed,
                failed=stats.failed,
                shed=shed,
                breaker_opens=opens,
                summary=result.summary(),
                goodput_qps=stats.goodput_qps,
            )
        )
    return FleetDayResult(
        server_name=server.name,
        model_name=config.name,
        batch_size=batch_size,
        engine="vectorized",
        peak_replicas=trajectory.peak_replicas,
        machine_hours=trajectory.machine_hours,
        window_sim_s=window_sim_s,
        sla_deadline_s=sla.deadline_s,
        incident=incident,
        windows=window_stats,
    )


def render(result: FleetDayResult) -> str:
    """Text rendering of the fleet-day run."""
    rows = []
    for w in result.windows:
        rows.append(
            [
                f"{w.hour:05.2f}",
                w.replicas,
                f"{w.demand_items_per_s / 1e3:.0f}",
                w.offered,
                f"{w.summary.p50 * 1e3:.2f}",
                f"{w.summary.p99 * 1e3:.2f}",
                w.shed,
                w.failed,
                f"{w.goodput_qps:.0f}",
            ]
        )
    title = (
        f"Figure fleet: {result.model_name} on {result.server_name}, "
        f"{len(result.windows)} windows x {result.window_sim_s * 1e3:.0f} ms, "
        f"peak fleet {result.peak_replicas} replicas"
    )
    table = format_table(
        [
            "hour", "replicas", "k items/s", "offered", "p50 ms", "p99 ms",
            "shed", "failed", "goodput qps",
        ],
        rows,
        title=title,
    )
    incident = result.incident
    lines = [
        table,
        (
            f"incident: {100 * incident.capacity_loss:.0f}% capacity loss at "
            f"hour {incident.start_hour:.1f} for "
            f"{incident.duration_hours:.1f} h"
        ),
        (
            f"day totals: {result.total_offered} offered, "
            f"{result.total_completed} completed, {result.total_shed} shed, "
            f"{result.total_failed} failed; availability "
            f"{100 * result.availability:.2f}%; "
            f"{result.machine_hours:.0f} machine-hours"
        ),
    ]
    return "\n".join(lines)
