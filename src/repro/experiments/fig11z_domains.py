"""Figure 11z (extension): zone-loss ladder with replicated shards.

Figure 11x stressed the fleet with *independent* faults. Real outages
are correlated: a rack power event or a zone partition takes out every
replica — and every embedding-shard copy — in the domain at once (Hsia
et al., arXiv:2010.05037). This experiment replays one seeded trace
through :class:`~repro.serving.faults.ResilientRouter` across a
scenario × replication ladder:

* **scenarios** — ``independent`` (a seeded host-level storm), ``rack``
  (one rack crash) and ``zone`` (one zone crash);
* **replication** — ``k`` = 1/2/3 shard copies placed by
  :func:`~repro.serving.distributed.replicate_shards` across the widest
  feasible failure domains.

Each cell compiles the domain events down to ordinary per-replica fault
primitives: the domain crash expands via
:meth:`~repro.serving.domains.DomainSchedule.expand_to_schedule`, shard
*blackouts* (no live copy; reads cannot complete) become fleet-wide
crashes, and failover windows (dead primary, live copy elsewhere) become
fleet-wide stragglers whose slowdown prices the extra network hops — so
the router consumes the compiled schedule unchanged. Reported per
cell: availability, latency percentiles, unresolved requests, the
partial-fan-out quality a degraded read would cost, and the
time-to-full-redundancy of the NIC-bounded recovery
(:func:`~repro.serving.distributed.recovery_timeline`).

The headline: **k=2 domain-spread placement survives a rack or zone loss
that collapses k=1** — same trace, same router, different placement.
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
from ..serving.distributed import (
    NetworkConfig,
    RecoveryTimeline,
    degraded_fanout_quality,
    recovery_timeline,
    replicate_shards,
    shard_tables,
)
from ..serving.domains import (
    DOMAIN_HOST,
    DOMAIN_RACK,
    DOMAIN_ZONE,
    DomainCrash,
    DomainSchedule,
    FleetTopology,
    domain_storm,
)
from ..serving.faults import (
    FaultSchedule,
    ReplicaCrash,
    ResiliencePolicy,
    ResilientRouter,
    Straggler,
)
from ..serving.metrics import SLA, ResilienceStats

#: Scenario order (render order): widening blast radius.
SCENARIOS = ("independent", "rack", "zone")

#: Replication ladder (copies per shard).
REPLICATION_FACTORS = (1, 2, 3)


@dataclass(frozen=True)
class LadderCell:
    """One (scenario, replication factor) cell of the ladder."""

    scenario: str
    replication_factor: int
    spread: str
    summary: LatencySummary
    stats: ResilienceStats
    unresolved: int
    blackout_s: float
    failover_s: float
    max_failover_hops: int
    lost_tables: tuple[int, ...]
    quality: dict[str, float]
    time_to_full_redundancy_s: float
    recovery_transfers: int
    cold_reloads: int


@dataclass(frozen=True)
class Figure11zResult:
    """The full scenario × replication ladder under one seeded trace."""

    server_name: str
    model_name: str
    num_machines: int
    replicas_per_host: int
    hosts_per_rack: int
    racks_per_zone: int
    num_zones: int
    num_shards: int
    offered_qps: float
    duration_s: float
    sla_deadline_s: float
    cells: dict[str, LadderCell]

    def cell(self, scenario: str, replication_factor: int) -> LadderCell:
        """The cell for one scenario and replication factor."""
        return self.cells[f"{scenario}/k{replication_factor}"]


def _scenarios(
    topology: FleetTopology, duration_s: float, seed: int
) -> dict[str, DomainSchedule]:
    """The three correlated outage shapes, all deterministic in ``seed``.

    The rack/zone crashes hit domain 0 — the one holding every shard's
    primary copy under the arithmetic placement — at 30% of the horizon
    for 15% of it, so the k=1 blackout dominates the availability budget.
    """
    return {
        "independent": domain_storm(
            topology,
            duration_s,
            seed=seed + 1,
            kinds=(DOMAIN_HOST,),
            crash_count=2,
            partition_count=1,
            slowdown_count=1,
        ),
        "rack": DomainSchedule(
            crashes=(
                DomainCrash(
                    kind=DOMAIN_RACK,
                    domain_id=0,
                    at_s=0.3 * duration_s,
                    downtime_s=0.15 * duration_s,
                ),
            )
        ),
        "zone": DomainSchedule(
            crashes=(
                DomainCrash(
                    kind=DOMAIN_ZONE,
                    domain_id=0,
                    at_s=0.3 * duration_s,
                    downtime_s=0.15 * duration_s,
                ),
            )
        ),
    }


def _compile_schedule(
    events: DomainSchedule,
    topology: FleetTopology,
    recovery: RecoveryTimeline,
    horizon_s: float,
    base_service_s: float,
    network: NetworkConfig,
) -> tuple[FaultSchedule, float, float, int, tuple[int, ...]]:
    """Lower domain events + shard state to one per-replica schedule.

    Returns the compiled schedule plus (blackout seconds, failover
    seconds, worst failover hops, tables lost during blackouts). Shard
    blackouts crash the whole fleet for the window (reads cannot
    complete without the shard); failover windows slow every replica by
    the extra round trips the slowest shard read pays.
    """
    expanded = events.expand_to_schedule(topology)
    extra_crashes: list[ReplicaCrash] = []
    extra_stragglers: list[Straggler] = []
    blackout_s = 0.0
    failover_s = 0.0
    worst_hops = 0
    lost: set[int] = set()
    for seg in recovery.service_segments(horizon_s):
        span_s = seg.end_s - seg.start_s
        if span_s <= 0.0:
            continue
        if seg.blackout:
            blackout_s += span_s
            lost.update(seg.lost_tables)
            extra_crashes.extend(
                ReplicaCrash(
                    replica_id=r, at_s=seg.start_s, downtime_s=span_s
                )
                for r in range(topology.num_replicas)
            )
        elif seg.max_failover_hops > 0:
            failover_s += span_s
            worst_hops = max(worst_hops, seg.max_failover_hops)
            slowdown = 1.0 + (
                seg.max_failover_hops * network.rtt_s / base_service_s
            )
            extra_stragglers.extend(
                Straggler(
                    replica_id=r,
                    start_s=seg.start_s,
                    duration_s=span_s,
                    slowdown=slowdown,
                )
                for r in range(topology.num_replicas)
            )
    schedule = FaultSchedule(
        crashes=expanded.crashes + tuple(extra_crashes),
        stragglers=expanded.stragglers + tuple(extra_stragglers),
        bandwidth_faults=expanded.bandwidth_faults,
    )
    return schedule, blackout_s, failover_s, worst_hops, tuple(sorted(lost))


def run(
    server: ServerSpec = BROADWELL,
    config: ModelConfig = RMC1_SMALL,
    batch_size: int = 8,
    replicas_per_host: int = 1,
    hosts_per_rack: int = 2,
    racks_per_zone: int = 2,
    num_zones: int = 2,
    num_shards: int = 2,
    utilization: float = 0.3,
    duration_s: float = 2.0,
    sla_deadline_factor: float = 10.0,
    network: NetworkConfig = NetworkConfig(),
    seed: int = 11,
    tracer: Tracer | NullTracer | None = None,
    metrics: MetricsRegistry | None = None,
    trace_cell: str = "zone/k2",
) -> Figure11zResult:
    """Replay one seeded trace across the zone-loss × replication ladder.

    Args:
        server / config / batch_size: the replicated service.
        replicas_per_host / hosts_per_rack / racks_per_zone / num_zones:
            fleet topology; the machine count is their product.
        num_shards: embedding shards (≤ the model's table count keeps
            every shard non-empty).
        utilization: offered load as a fraction of fault-free capacity;
            moderate by default so survivors can absorb a zone's load.
        duration_s: simulated horizon.
        sla_deadline_factor: SLA deadline as a multiple of the
            fault-free service time.
        network: NIC model for failover hops and recovery bandwidth.
        seed: arrival/storm RNG seed (shared by every cell).
        tracer: optional tracer observing the ``trace_cell`` run (its
            recovery transfers and its router run).
        metrics: optional registry every cell records into, labelled
            ``cell=<scenario>/k<k>``.
        trace_cell: which cell the ``tracer`` observes.
    """
    if not 0.0 < utilization < 1.0:
        raise ValueError("utilization must be in (0, 1)")
    topology = FleetTopology(
        num_replicas=replicas_per_host
        * hosts_per_rack
        * racks_per_zone
        * num_zones,
        replicas_per_host=replicas_per_host,
        hosts_per_rack=hosts_per_rack,
        racks_per_zone=racks_per_zone,
    )
    num_machines = topology.num_replicas
    plan = shard_tables(config, num_shards)
    base_service_s = TimingModel(server).model_seconds(config, batch_size)
    sla = SLA(deadline_s=sla_deadline_factor * base_service_s, percentile=0.99)
    # Retries with instantaneous health knowledge: correlated crashes kill
    # whole domains at once, so passive per-request discovery would turn
    # every outage into a retry storm before the first health check.
    policy = ResiliencePolicy(
        timeout_s=30.0 * base_service_s,
        max_retries=2,
        backoff_base_s=base_service_s,
    )
    offered_qps = utilization * (num_machines / base_service_s)
    scenarios = _scenarios(topology, duration_s, seed)

    cells: dict[str, LadderCell] = {}
    for scenario_name, events in scenarios.items():
        for k in REPLICATION_FACTORS:
            key = f"{scenario_name}/k{k}"
            observed = tracer if key == trace_cell else None
            replication = replicate_shards(plan, topology, k)
            recovery = recovery_timeline(
                server,
                config,
                replication,
                topology,
                events,
                network=network,
                tracer=observed,
                metrics=metrics,
                metrics_labels={"cell": key},
            )
            schedule, blackout_s, failover_s, worst_hops, lost = (
                _compile_schedule(
                    events,
                    topology,
                    recovery,
                    duration_s,
                    base_service_s,
                    network,
                )
            )
            router = ResilientRouter(
                server,
                config,
                batch_size,
                num_machines,
                policy=policy,
                seed=seed,
                tracer=observed,
                metrics=metrics,
                metrics_labels={"cell": key},
            )
            result = router.run(
                offered_qps, duration_s, faults=schedule, sla=sla
            )
            cells[key] = LadderCell(
                scenario=scenario_name,
                replication_factor=k,
                spread=replication.spread,
                summary=result.summary(),
                stats=result.stats(),
                unresolved=result.unresolved,
                blackout_s=blackout_s,
                failover_s=failover_s,
                max_failover_hops=worst_hops,
                lost_tables=lost,
                quality=degraded_fanout_quality(config, lost, seed=seed),
                time_to_full_redundancy_s=recovery.time_to_full_redundancy_s,
                recovery_transfers=sum(
                    1 for t in recovery.transfers if t.source_host is not None
                ),
                cold_reloads=sum(
                    1 for t in recovery.transfers if t.source_host is None
                ),
            )
    return Figure11zResult(
        server_name=server.name,
        model_name=config.name,
        num_machines=num_machines,
        replicas_per_host=replicas_per_host,
        hosts_per_rack=hosts_per_rack,
        racks_per_zone=racks_per_zone,
        num_zones=num_zones,
        num_shards=plan.num_shards,
        offered_qps=offered_qps,
        duration_s=duration_s,
        sla_deadline_s=sla.deadline_s,
        cells=cells,
    )


def render(result: Figure11zResult) -> str:
    """Text rendering of the Figure 11z ladder."""
    rows = []
    for scenario in SCENARIOS:
        for k in REPLICATION_FACTORS:
            cell = result.cell(scenario, k)
            rows.append(
                [
                    f"{scenario}/k{k}",
                    cell.spread,
                    f"{100 * cell.stats.availability:.2f}",
                    f"{cell.summary.p99 * 1e3:.2f}",
                    cell.unresolved,
                    f"{cell.blackout_s * 1e3:.1f}",
                    f"{cell.failover_s * 1e3:.1f}",
                    len(cell.lost_tables),
                    f"{cell.quality['ndcg_at_k']:.3f}",
                    f"{cell.time_to_full_redundancy_s * 1e3:.1f}",
                    cell.recovery_transfers + cell.cold_reloads,
                ]
            )
    header = (
        f"Figure 11z: {result.model_name} x{result.num_machines} machines "
        f"({result.num_zones} zones x {result.racks_per_zone} racks x "
        f"{result.hosts_per_rack} hosts), {result.num_shards} shards, "
        f"{result.offered_qps:.0f} qps offered for {result.duration_s:.1f} s; "
        f"SLA deadline {result.sla_deadline_s * 1e3:.2f} ms"
    )
    table = format_table(
        [
            "scenario", "spread", "avail %", "p99 ms", "unresolved",
            "blackout ms", "failover ms", "lost tbls", "NDCG",
            "redundancy ms", "xfers",
        ],
        rows,
        title=header,
    )
    lone = result.cell("zone", 1)
    spread2 = result.cell("zone", 2)
    headline = (
        f"zone loss: k=1 availability "
        f"{100 * lone.stats.availability:.1f}% (blackout "
        f"{lone.blackout_s * 1e3:.0f} ms, partial fan-out NDCG "
        f"{lone.quality['ndcg_at_k']:.3f}) vs k=2 {spread2.spread}-spread "
        f"{100 * spread2.stats.availability:.1f}% with p99 "
        f"{spread2.summary.p99 * 1e3:.2f} ms and full redundancy back "
        f"{spread2.time_to_full_redundancy_s * 1e3:.0f} ms in"
    )
    return "\n".join([table, headline])
