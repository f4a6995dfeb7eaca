"""Figure 11y (extension): overload protection under a flash crowd.

Figure 11 shows co-location pushing an operator's p99 past the SLO
cliff; PR 2's Figure 11x added component faults. This experiment adds
the remaining tail source: *overload*. A replicated model receives a
seeded diurnal trace with a flash crowd riding the peak — several times
the fleet's latency-bounded capacity — while one replica straggles, and
climbs the overload-protection ladder:

1. ``none`` — the unprotected stack: unbounded queues, no timeouts;
   every arrival is eventually served, so the queue (and p99) grows
   without bound for the length of the crowd.
2. ``admission`` — deadline-aware bounded queues plus a CoDel sojourn
   controller: work that cannot meet the SLO is shed at the door, the
   rest is served in bound.
3. ``admission+breaker`` — plus per-attempt timeouts (bounded retries)
   feeding per-replica circuit breakers, so the straggling replica is
   cut out instead of timing out request after request.
4. ``admission+breaker+brownout`` — plus SLO-aware brownout: under
   sustained pressure the service steps down through quality tiers
   (truncated sparse lookups), trading ranking quality for capacity
   headroom, and steps back up when the crowd passes.

Every rung replays the *same* arrival trace against the *same* straggler
(identical seeds), so goodput and tail differences are attributable to
the protection policy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.distributions import LatencySummary
from ..analysis.tables import format_table
from ..config.model_config import ModelConfig
from ..config.presets import RMC1_SMALL
from ..hw.server import BROADWELL, ServerSpec
from ..hw.timing import TimingModel
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NullTracer, Tracer
from ..serving.faults import (
    FaultSchedule,
    ResiliencePolicy,
    ResilientRouter,
    Straggler,
)
from ..serving.loadgen import DiurnalLoadGenerator, LoadSpike
from ..serving.metrics import SLA, ResilienceStats
from ..serving.overload import (
    AdmissionPolicy,
    BreakerPolicy,
    BrownoutPolicy,
    OverloadConfig,
    OverloadStats,
    default_brownout_tiers,
)

#: Policy ladder order (render order and comparison anchors).
POLICY_LADDER = (
    "none",
    "admission",
    "admission+breaker",
    "admission+breaker+brownout",
)


@dataclass(frozen=True)
class OverloadOutcome:
    """One protection policy's showing under the flash crowd."""

    policy_name: str
    summary: LatencySummary
    stats: ResilienceStats
    overload: OverloadStats | None
    brownout_quality: tuple[dict[str, float], ...] | None


@dataclass(frozen=True)
class Figure11yResult:
    """Per-policy outcomes under one seeded flash crowd."""

    server_name: str
    model_name: str
    num_machines: int
    capacity_qps: float
    offered: int
    duration_s: float
    sla_deadline_s: float
    crowd_multiplier: float
    outcomes: dict[str, OverloadOutcome]

    def goodput_fraction(self, policy: str) -> float:
        """Goodput of ``policy`` as a fraction of fleet capacity."""
        return self.outcomes[policy].stats.goodput_qps / self.capacity_qps

    def p99_ratio(
        self,
        baseline: str = "none",
        policy: str = "admission+breaker+brownout",
    ) -> float:
        """p99 of ``baseline`` over ``policy`` (>1 = protection wins)."""
        return (
            self.outcomes[baseline].summary.p99
            / self.outcomes[policy].summary.p99
        )


def _ladder(
    base_service_s: float,
    config: ModelConfig,
    sla_deadline_s: float,
    queue_capacity: int,
    brownout_lookup_caps: tuple[int, ...],
) -> dict[str, tuple[ResiliencePolicy, OverloadConfig | None]]:
    """The ladder, scaled to the model's uncontended service time."""
    # Timeouts only enter at the breaker rung: under overload a timeout
    # plus retry amplifies offered load, so retries stay at 1 and the
    # breaker turns repeated timeouts into fast local rejection instead.
    timeout = ResiliencePolicy(
        timeout_s=30.0 * base_service_s,
        max_retries=1,
        backoff_base_s=base_service_s,
    )
    admission = AdmissionPolicy(
        queue_capacity=queue_capacity,
        shed_policy="deadline_aware",
        deadline_s=sla_deadline_s,
        codel_target_s=8.0 * base_service_s,
        codel_interval_s=40.0 * base_service_s,
    )
    breaker = BreakerPolicy(
        failure_threshold=5,
        window_s=60.0 * base_service_s,
        open_duration_s=100.0 * base_service_s,
        half_open_probes=2,
    )
    brownout = BrownoutPolicy(
        tiers=default_brownout_tiers(config, lookup_caps=brownout_lookup_caps),
        step_up_depth=6.0,
        step_down_depth=1.0,
        dwell_s=20.0 * base_service_s,
    )
    return {
        "none": (ResiliencePolicy.none(), None),
        "admission": (
            ResiliencePolicy.none(),
            OverloadConfig(admission=admission),
        ),
        "admission+breaker": (
            timeout,
            OverloadConfig(admission=admission, breaker=breaker),
        ),
        "admission+breaker+brownout": (
            timeout,
            OverloadConfig(
                admission=admission, breaker=breaker, brownout=brownout
            ),
        ),
    }


def run(
    server: ServerSpec = BROADWELL,
    config: ModelConfig = RMC1_SMALL,
    batch_size: int = 8,
    num_machines: int = 4,
    base_utilization: float = 0.75,
    crowd_multiplier: float = 5.0,
    diurnal_amplitude: float = 0.25,
    duration_s: float = 0.5,
    sla_deadline_factor: float = 25.0,
    queue_capacity: int = 16,
    brownout_lookup_caps: tuple[int, ...] = (8, 2),
    straggler_slowdown: float = 8.0,
    seed: int = 11,
    tracer: Tracer | NullTracer | None = None,
    metrics: MetricsRegistry | None = None,
    trace_policy: str = "admission+breaker+brownout",
) -> Figure11yResult:
    """Replay one seeded flash crowd against the protection ladder.

    Args:
        server / config / batch_size: the replicated service.
        num_machines: replica count behind the router.
        base_utilization: diurnal mean load as a fraction of capacity.
        crowd_multiplier: flash-crowd rate multiplier (5 means the spike
            offers ~5x the fleet's capacity).
        diurnal_amplitude: relative swing of the sinusoidal baseline.
        duration_s: simulated horizon (one compressed diurnal cycle).
        sla_deadline_factor: SLA deadline as a multiple of the
            uncontended service time; also the deadline-aware admission
            bound.
        queue_capacity: per-replica admission queue bound.
        brownout_lookup_caps: per-tier sparse-lookup caps (strictly
            decreasing; each cap is one brownout tier).
        straggler_slowdown: service multiplier of the straggling replica
            (replica 0, covering the crowd window).
        seed: arrival/service RNG seed (shared by every rung).
        tracer: optional tracer observing the ``trace_policy`` rung only.
        metrics: optional registry every rung records into, labelled
            ``policy=<name>``.
        trace_policy: which ladder rung the ``tracer`` observes.
    """
    if not 0.0 < base_utilization < 1.0:
        raise ValueError("base_utilization must be in (0, 1)")
    if crowd_multiplier <= 1.0:
        raise ValueError("crowd_multiplier must exceed 1")
    base_service_s = (
        TimingModel(server).model_latency(config, batch_size).total_seconds
    )
    capacity_qps = num_machines / base_service_s
    sla = SLA(deadline_s=sla_deadline_factor * base_service_s, percentile=0.99)

    # One seeded flash-crowd trace shared by every rung: a compressed
    # diurnal cycle with a spike riding its peak, sized so the spike
    # offers ~crowd_multiplier x capacity.
    crowd = LoadSpike(
        start_s=0.35 * duration_s,
        duration_s=0.3 * duration_s,
        multiplier=crowd_multiplier / base_utilization,
    )
    arrivals = DiurnalLoadGenerator(
        mean_qps=base_utilization * capacity_qps,
        amplitude=diurnal_amplitude,
        period_s=duration_s,
        spikes=(crowd,),
        seed=seed,
    ).generate(duration_s)
    arrival_times_s = [q.arrival_s for q in arrivals]

    # The same straggler stresses every rung through the crowd window —
    # the breaker rungs cut it out, the others keep feeding it.
    storm = FaultSchedule(
        stragglers=(
            Straggler(
                replica_id=0,
                start_s=crowd.start_s,
                duration_s=crowd.duration_s,
                slowdown=straggler_slowdown,
            ),
        )
    )

    outcomes: dict[str, OverloadOutcome] = {}
    for name, (policy, overload) in _ladder(
        base_service_s,
        config,
        sla.deadline_s,
        queue_capacity,
        brownout_lookup_caps,
    ).items():
        router = ResilientRouter(
            server,
            config,
            batch_size,
            num_machines,
            policy=policy,
            overload=overload,
            seed=seed,
            tracer=tracer if name == trace_policy else None,
            metrics=metrics,
            metrics_labels={"policy": name},
        )
        result = router.run(
            offered_qps=capacity_qps,  # nominal; the trace sets the rate
            duration_s=duration_s,
            faults=storm,
            sla=sla,
            arrival_times_s=arrival_times_s,
        )
        outcomes[name] = OverloadOutcome(
            policy_name=name,
            summary=result.summary(),
            stats=result.stats(),
            overload=result.overload,
            brownout_quality=result.brownout_quality,
        )
    return Figure11yResult(
        server_name=server.name,
        model_name=config.name,
        num_machines=num_machines,
        capacity_qps=capacity_qps,
        offered=len(arrival_times_s),
        duration_s=duration_s,
        sla_deadline_s=sla.deadline_s,
        crowd_multiplier=crowd_multiplier,
        outcomes=outcomes,
    )


def render(result: Figure11yResult) -> str:
    """Text rendering of the Figure 11y comparison."""
    rows = []
    for name in POLICY_LADDER:
        outcome = result.outcomes[name]
        stats = outcome.stats
        summary = outcome.summary
        ovl = outcome.overload
        rows.append(
            [
                name,
                f"{summary.p50 * 1e3:.2f}",
                f"{summary.p99 * 1e3:.2f}",
                f"{stats.goodput_qps:.0f}",
                f"{100 * result.goodput_fraction(name):.0f}",
                ovl.shed if ovl is not None else 0,
                ovl.breaker_opens if ovl is not None else 0,
                ovl.max_brownout_tier if ovl is not None else 0,
            ]
        )
    header = (
        f"Figure 11y: {result.model_name} x{result.num_machines} on "
        f"{result.server_name}, {result.offered} arrivals in "
        f"{result.duration_s:.1f} s ({result.crowd_multiplier:.0f}x flash "
        f"crowd over {result.capacity_qps:.0f} qps capacity); SLA deadline "
        f"{result.sla_deadline_s * 1e3:.2f} ms"
    )
    table = format_table(
        [
            "policy", "p50 ms", "p99 ms", "goodput qps", "% capacity",
            "shed", "breaker opens", "max tier",
        ],
        rows,
        title=header,
    )
    lines = [table]
    full = result.outcomes[POLICY_LADDER[-1]]
    if full.brownout_quality:
        for tier, quality in enumerate(full.brownout_quality, start=1):
            lines.append(
                f"brownout tier {tier} quality: "
                f"recall@k {quality['recall_at_k']:.3f}, "
                f"NDCG@k {quality['ndcg_at_k']:.3f}"
            )
    lines.append(
        f"full stack vs none: p99 /{result.p99_ratio():.1f}, "
        f"goodput {100 * result.goodput_fraction(POLICY_LADDER[-1]):.0f}% "
        "of capacity"
    )
    return "\n".join(lines)
