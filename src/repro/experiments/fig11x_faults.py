"""Figure 11x (extension): tail latency and goodput under a fault storm.

The paper's Figure 11 shows how co-location alone multiplies an FC
operator's p99. Production fleets add a second tail source the paper only
hints at (Section VI): replica crashes, stragglers and noisy neighbours.
This experiment subjects one replicated model to a *seeded fault storm*
(:func:`repro.serving.faults.fault_storm`) and climbs the resilience-policy
ladder —

1. ``none`` — the pre-fault serving stack: no timeouts, no retries;
2. ``retry`` — per-attempt timeout with bounded exponential-backoff
   retries and health-checked replica ejection;
3. ``retry+hedge`` — plus hedged requests ("The Tail at Scale"): a
   duplicate to a second replica after a short delay, first response wins;
4. ``retry+hedge+degrade`` — plus graceful degradation: truncated sparse
   lookups under overload or partial failure, quality cost reported.

Every policy replays the *same* storm against the *same* arrival stream
(identical seeds), so differences in p50/p99/p999, availability and
goodput are attributable to the policy alone.
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
    DegradationPolicy,
    FaultSchedule,
    ResiliencePolicy,
    ResilientRouter,
    fault_storm,
)
from ..serving.metrics import SLA, ResilienceStats

#: Policy ladder order (render order and comparison anchors).
POLICY_LADDER = ("none", "retry", "retry+hedge", "retry+hedge+degrade")


@dataclass(frozen=True)
class PolicyOutcome:
    """One policy's showing under the storm."""

    policy_name: str
    summary: LatencySummary
    stats: ResilienceStats
    quality: dict[str, float] | None


@dataclass(frozen=True)
class Figure11xResult:
    """Per-policy outcomes under one seeded fault storm."""

    server_name: str
    model_name: str
    num_machines: int
    offered_qps: float
    duration_s: float
    sla_deadline_s: float
    storm: FaultSchedule
    outcomes: dict[str, PolicyOutcome]

    def p999_reduction(
        self, baseline: str = "none", policy: str = "retry+hedge"
    ) -> float:
        """p999 latency of ``baseline`` over ``policy`` (>1 = policy wins)."""
        return (
            self.outcomes[baseline].summary.p999
            / self.outcomes[policy].summary.p999
        )

    def goodput_gain(
        self, baseline: str = "none", policy: str = "retry+hedge"
    ) -> float:
        """Goodput of ``policy`` over ``baseline`` (>1 = policy wins)."""
        return (
            self.outcomes[policy].stats.goodput_qps
            / self.outcomes[baseline].stats.goodput_qps
        )


def _policies(
    base_service_s: float, degraded_lookups: int
) -> dict[str, tuple[ResiliencePolicy, DegradationPolicy | None]]:
    """The ladder, scaled to the model's fault-free service time."""
    # Timeout sits well above queueing latency at moderate load: tighter
    # timeouts (e.g. 20x service) cancel work that was about to finish and
    # feed a metastable retry storm under straggler faults. The hedge fires
    # around the fault-free p99 — late enough to stay rare, early enough to
    # beat a straggler's 6-12x service inflation.
    retry = ResiliencePolicy(
        timeout_s=30.0 * base_service_s,
        max_retries=2,
        backoff_base_s=base_service_s,
        health_check_interval_s=50.0 * base_service_s,
    )
    hedge = ResiliencePolicy(
        timeout_s=30.0 * base_service_s,
        max_retries=2,
        backoff_base_s=base_service_s,
        hedge_delay_s=6.0 * base_service_s,
        health_check_interval_s=50.0 * base_service_s,
    )
    # min_healthy_fraction just above (n-1)/n so losing even one replica
    # flips the service into degraded mode until it returns.
    degrade = DegradationPolicy(
        max_lookups_per_table=degraded_lookups,
        queue_depth_trigger=3.0,
        min_healthy_fraction=0.95,
    )
    return {
        "none": (ResiliencePolicy.none(), None),
        "retry": (retry, None),
        "retry+hedge": (hedge, None),
        "retry+hedge+degrade": (hedge, degrade),
    }


def run(
    server: ServerSpec = BROADWELL,
    config: ModelConfig = RMC1_SMALL,
    batch_size: int = 8,
    num_machines: int = 8,
    utilization: float = 0.6,
    duration_s: float = 2.0,
    sla_deadline_factor: float = 10.0,
    degraded_lookups: int = 4,
    storm: FaultSchedule | None = None,
    seed: int = 11,
    tracer: Tracer | NullTracer | None = None,
    metrics: MetricsRegistry | None = None,
    trace_policy: str = "retry+hedge",
) -> Figure11xResult:
    """Replay one seeded fault storm against the resilience-policy ladder.

    Args:
        server / config / batch_size: the replicated service.
        num_machines: replica count behind the router.
        utilization: offered load as a fraction of fault-free capacity.
        duration_s: simulated horizon.
        sla_deadline_factor: SLA deadline as a multiple of the fault-free
            service time (the paper's SLAs sit an order of magnitude above
            the unloaded latency).
        degraded_lookups: per-table sparse-lookup cap in degraded mode.
        storm: explicit fault schedule; default draws a storm of crashes,
            stragglers and a bandwidth dip from ``seed + 1``.
        seed: arrival/service RNG seed (shared by every policy).
        tracer: optional :class:`~repro.obs.tracer.Tracer` that records the
            ``trace_policy`` ladder rung's run (one rung only, so the
            exported timeline stays readable). The default nil tracer
            records nothing and the run is bit-identical.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry` every
            rung records into, labelled ``policy=<name>``.
        trace_policy: which ladder rung the ``tracer`` observes.
    """
    if not 0.0 < utilization < 1.0:
        raise ValueError("utilization must be in (0, 1)")
    base_service_s = TimingModel(server).model_seconds(config, batch_size)
    if storm is None:
        storm = fault_storm(
            num_machines,
            duration_s,
            seed=seed + 1,
            crash_count=2,
            straggler_count=2,
            straggler_slowdown=(6.0, 12.0),
            bandwidth_dip_count=1,
        )
    sla = SLA(deadline_s=sla_deadline_factor * base_service_s, percentile=0.99)
    offered_qps = utilization * (num_machines / base_service_s)

    outcomes: dict[str, PolicyOutcome] = {}
    for name, (policy, degradation) in _policies(
        base_service_s, degraded_lookups
    ).items():
        router = ResilientRouter(
            server,
            config,
            batch_size,
            num_machines,
            policy=policy,
            degradation=degradation,
            seed=seed,
            tracer=tracer if name == trace_policy else None,
            metrics=metrics,
            metrics_labels={"policy": name},
        )
        result = router.run(offered_qps, duration_s, faults=storm, sla=sla)
        outcomes[name] = PolicyOutcome(
            policy_name=name,
            summary=result.summary(),
            stats=result.stats(),
            quality=result.quality,
        )
    return Figure11xResult(
        server_name=server.name,
        model_name=config.name,
        num_machines=num_machines,
        offered_qps=offered_qps,
        duration_s=duration_s,
        sla_deadline_s=sla.deadline_s,
        storm=storm,
        outcomes=outcomes,
    )


def render(result: Figure11xResult) -> str:
    """Text rendering of the Figure 11x comparison."""
    rows = []
    for name in POLICY_LADDER:
        outcome = result.outcomes[name]
        stats = outcome.stats
        summary = outcome.summary
        rows.append(
            [
                name,
                f"{summary.p50 * 1e3:.2f}",
                f"{summary.p99 * 1e3:.2f}",
                f"{summary.p999 * 1e3:.2f}",
                f"{100 * stats.availability:.2f}",
                f"{stats.goodput_qps:.0f}",
                stats.retries,
                stats.hedges,
                f"{100 * stats.degraded_fraction:.0f}",
            ]
        )
    storm = result.storm
    header = (
        f"Figure 11x: {result.model_name} x{result.num_machines} on "
        f"{result.server_name}, {result.offered_qps:.0f} qps offered for "
        f"{result.duration_s:.1f} s under a storm of {len(storm.crashes)} "
        f"crash(es), {len(storm.stragglers)} straggler(s), "
        f"{len(storm.bandwidth_faults)} bandwidth dip(s); "
        f"SLA deadline {result.sla_deadline_s * 1e3:.2f} ms"
    )
    table = format_table(
        [
            "policy", "p50 ms", "p99 ms", "p999 ms", "avail %",
            "goodput qps", "retries", "hedges", "degraded %",
        ],
        rows,
        title=header,
    )
    lines = [table]
    degraded = result.outcomes.get("retry+hedge+degrade")
    if degraded is not None and degraded.quality is not None:
        lines.append(
            "degraded-mode quality: "
            f"recall@k {degraded.quality['recall_at_k']:.3f}, "
            f"NDCG@k {degraded.quality['ndcg_at_k']:.3f}"
        )
    lines.append(
        f"retry+hedge vs none: p999 /{result.p999_reduction():.2f}, "
        f"goodput x{result.goodput_gain():.3f}"
    )
    return "\n".join(lines)
