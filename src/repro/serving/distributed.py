"""Distributed (sharded) recommendation inference.

The paper notes its open-source benchmark "can be used to analyze
scheduling decisions, such as running recommendation models across many
nodes (distributed inference)". The standard production layout shards the
multi-GB embedding tables across servers: each shard executes the SLS
lookups for its tables, pooled vectors travel over the network, and one
node runs the MLPs and produces the CTR.

:func:`shard_tables` partitions tables greedily by size;
:func:`distributed_latency` predicts the end-to-end latency: the slowest
shard's SLS time (shards work in parallel), plus network transfer of the
pooled embedding vectors, plus the dense compute on the aggregator.

Shard *fault tolerance* builds on the failure-domain topology
(:mod:`repro.serving.domains`): :func:`replicate_shards` places ``k``
copies of every shard across distinct failure domains,
:func:`distributed_latency` fails over dead primaries to the next live
copy (one extra network hop per dead copy tried), and when every copy of
a shard is down the read degrades to a *partial fan-out* whose ranking
cost :func:`degraded_fanout_quality` prices through the same machinery
as :class:`~repro.serving.faults.DegradationPolicy`. Lost copies are
re-replicated by :func:`recovery_timeline` at ``min(NIC, DRAM)``
bandwidth on the DES clock — a bulk transfer, not a restart (Kalamkar et
al., arXiv:2005.04680) — yielding a time-to-full-redundancy metric.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

from ..config.model_config import ModelConfig
from ..core.graph import config_ops
from ..core.operators.base import OP_SLS
from ..hw.server import ServerSpec
from ..hw.timing import TimingModel
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NullTracer, Tracer, as_tracer
from .domains import (
    DomainSchedule,
    FleetTopology,
    best_spread,
    diverse_domain_order,
)
from .faults import _merge_intervals, degraded_quality


@dataclass(frozen=True)
class NetworkConfig:
    """Datacenter network between shards and the aggregator.

    Attributes:
        rtt_s: request/response round-trip latency.
        bandwidth_bytes_per_s: per-link bandwidth (25 GbE default).
    """

    rtt_s: float = 25e-6
    bandwidth_bytes_per_s: float = 25e9 / 8

    def __post_init__(self) -> None:
        if self.rtt_s < 0 or self.bandwidth_bytes_per_s <= 0:
            raise ValueError("invalid network parameters")

    def transfer_s(self, payload_bytes: int) -> float:
        """Latency to move one payload shard→aggregator."""
        return self.rtt_s + payload_bytes / self.bandwidth_bytes_per_s


@dataclass(frozen=True)
class ShardPlan:
    """Assignment of embedding tables to shards.

    Attributes:
        num_shards: shard count.
        table_assignment: shard index per embedding table, in table order.
    """

    num_shards: int
    table_assignment: tuple[int, ...]

    def tables_of(self, shard: int) -> list[int]:
        """Table indices owned by ``shard``."""
        return [i for i, s in enumerate(self.table_assignment) if s == shard]


def min_shards_for_capacity(
    config: ModelConfig, server: ServerSpec, dram_headroom: float = 0.8
) -> int:
    """Fewest shards such that every shard's tables fit the server's DRAM.

    Sharding exists because multi-GB embedding tables outgrow a single
    server's memory; ``dram_headroom`` reserves the remainder of
    ``server.dram_capacity_bytes`` for MLP weights, activations and the OS.
    The greedy partition is balanced, so the bound uses the aggregate size
    with one retry step in case the largest-first packing overshoots.
    """
    if not 0.0 < dram_headroom <= 1.0:
        raise ValueError("dram_headroom must be in (0, 1]")
    budget_bytes = int(server.dram_capacity_bytes * dram_headroom)
    biggest_table = max(
        t.storage_bytes(config.dtype) for t in config.embedding_tables
    )
    if biggest_table > budget_bytes:
        raise ValueError(
            f"table of {biggest_table} bytes cannot fit any shard's "
            f"{budget_bytes}-byte DRAM budget on {server.name}"
        )
    total_bytes = config.embedding_storage_bytes()
    num_shards = max(1, -(-total_bytes // budget_bytes))
    while True:
        plan = shard_tables(config, num_shards)
        shard_bytes = [
            sum(
                config.embedding_tables[i].storage_bytes(config.dtype)
                for i in plan.tables_of(shard)
            )
            for shard in range(plan.num_shards)
        ]
        if max(shard_bytes) <= budget_bytes:
            return num_shards
        num_shards += 1


def shard_tables(config: ModelConfig, num_shards: int) -> ShardPlan:
    """Greedy largest-first partition of tables by storage bytes."""
    if num_shards < 1:
        raise ValueError("need at least one shard")
    sizes = [
        (i, t.storage_bytes(config.dtype))
        for i, t in enumerate(config.embedding_tables)
    ]
    sizes.sort(key=lambda pair: -pair[1])
    loads = [0] * num_shards
    assignment = [0] * len(sizes)
    for table_idx, size in sizes:
        shard = loads.index(min(loads))
        assignment[table_idx] = shard
        loads[shard] += size
    return ShardPlan(num_shards=num_shards, table_assignment=tuple(assignment))


# ------------------------------------------------------------- replication


@dataclass(frozen=True)
class ReplicationPlan:
    """Placement of ``k`` copies of every shard across failure domains.

    Copy 0 is the primary; reads fail over in copy order. Placement is
    pure arithmetic (no RNG), so the same plan always lands on the same
    hosts; :meth:`validate` re-checks the spread constraint against a
    topology.

    Attributes:
        plan: the underlying table→shard assignment.
        replication_factor: copies kept per shard (``k``).
        spread: domain kind (``host``/``rack``/``zone``) whose domains
            must be pairwise distinct across one shard's copies.
        copy_hosts: host id per ``[shard][copy]``.
    """

    plan: ShardPlan
    replication_factor: int
    spread: str
    copy_hosts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.replication_factor < 1:
            raise ValueError("replication factor must be positive")
        if len(self.copy_hosts) != self.plan.num_shards:
            raise ValueError("copy_hosts must cover every shard")
        for hosts in self.copy_hosts:
            if len(hosts) != self.replication_factor:
                raise ValueError("every shard needs replication_factor copies")

    def hosts_of(self, shard: int) -> tuple[int, ...]:
        """Hosts holding ``shard``'s copies, primary first."""
        return self.copy_hosts[shard]

    def validate(self, topology: FleetTopology) -> None:
        """Raise unless every shard's copies sit in distinct domains."""
        for shard, hosts in enumerate(self.copy_hosts):
            domains = [topology.host_domain(h, self.spread) for h in hosts]
            if len(set(domains)) != len(domains):
                raise ValueError(
                    f"shard {shard} copies share a {self.spread} domain "
                    f"(hosts {hosts} map to {self.spread}s {tuple(domains)})"
                )


def replicate_shards(
    plan: ShardPlan,
    topology: FleetTopology,
    replication_factor: int,
    spread: str | None = None,
) -> ReplicationPlan:
    """Place ``replication_factor`` copies of each shard, domain-spread.

    Copy ``c`` of shard ``s`` lands in the ``(s + c) % D``-th domain of
    the ``spread`` kind's *zone-diverse order*
    (:func:`~repro.serving.domains.diverse_domain_order` — so adjacent
    copies straddle parent domains too), rotating shards across domains
    for balance; within a domain the host is chosen round-robin. ``None``
    picks the widest feasible kind via
    :func:`~repro.serving.domains.best_spread`. Raises with an actionable
    message when ``replication_factor`` exceeds the number of domains —
    the spread constraint is then infeasible.
    """
    if replication_factor < 1:
        raise ValueError("replication factor must be positive")
    if spread is None:
        spread = best_spread(topology, replication_factor)
    num_domains = topology.num_domains(spread)
    if replication_factor > num_domains:
        raise ValueError(
            f"cannot place {replication_factor} copies of each shard in "
            f"distinct {spread} domains: topology has only {num_domains} "
            f"{spread}(s); lower the replication factor, widen the fleet, "
            f"or spread across a narrower domain kind"
        )
    domain_order = diverse_domain_order(topology, spread)
    copy_hosts = []
    for shard in range(plan.num_shards):
        hosts = []
        for copy_index in range(replication_factor):
            domain_id = domain_order[(shard + copy_index) % num_domains]
            domain_hosts = topology.hosts_in(spread, domain_id)
            hosts.append(domain_hosts[(shard // num_domains) % len(domain_hosts)])
        copy_hosts.append(tuple(hosts))
    built = ReplicationPlan(
        plan=plan,
        replication_factor=replication_factor,
        spread=spread,
        copy_hosts=tuple(copy_hosts),
    )
    built.validate(topology)
    return built


@dataclass(frozen=True)
class DistributedLatency:
    """End-to-end latency of one sharded inference.

    ``failover_hops``/``lost_tables`` stay at their zero defaults unless
    the read ran against a :class:`ReplicationPlan` with dead copies.
    """

    model_name: str
    num_shards: int
    batch_size: int
    slowest_shard_seconds: float
    network_seconds: float
    dense_seconds: float
    failover_hops: int = 0
    lost_tables: tuple[int, ...] = ()

    @property
    def total_seconds(self) -> float:
        """Sharded end-to-end latency (shards overlap; network + dense
        follow the slowest shard)."""
        return self.slowest_shard_seconds + self.network_seconds + self.dense_seconds


def distributed_latency(
    server: ServerSpec,
    config: ModelConfig,
    batch_size: int,
    plan: ShardPlan,
    network: NetworkConfig = NetworkConfig(),
    tracer: Tracer | NullTracer | None = None,
    replication: ReplicationPlan | None = None,
    copy_available: Sequence[Sequence[bool]] | None = None,
) -> DistributedLatency:
    """Predict sharded-inference latency on homogeneous shard servers.

    With a ``tracer``, the predicted inference is synthesized as one
    ``serving.shard.fanout`` span starting at t=0 with per-shard
    ``serving.shard.sls`` children (one track per shard) followed by
    ``serving.shard.network`` and ``serving.shard.dense`` on the
    aggregator track — the model's timeline, viewable in Perfetto.

    With a ``replication`` plan, ``copy_available[shard][copy]`` marks
    which copies are reachable (default all): each shard read walks its
    copy list, paying one extra ``network.rtt_s`` hop per dead copy
    tried, and a shard with *no* live copy drops out of the fan-out
    entirely — its tables are reported in ``lost_tables`` and the
    quality cost of serving without them is priced by
    :func:`degraded_fanout_quality`. ``replication=None`` reproduces the
    unreplicated prediction bit for bit.
    """
    timing = TimingModel(server)
    specs = config_ops(config)
    sls_specs = [s for s in specs if s.op_type == OP_SLS]
    if len(sls_specs) != len(plan.table_assignment):
        raise ValueError(
            f"plan covers {len(plan.table_assignment)} tables, model has "
            f"{len(sls_specs)}"
        )

    # Per-shard SLS time: the shard's own tables determine its hit ratio.
    shard_seconds = []
    for shard in range(plan.num_shards):
        tables = plan.tables_of(shard)
        if not tables:
            shard_seconds.append(0.0)
            continue
        shard_table_bytes = sum(
            config.embedding_tables[i].storage_bytes(config.dtype) for i in tables
        )
        hit = timing.table_hit_ratio(shard_table_bytes)
        total = 0.0
        for i in tables:
            spec = sls_specs[i]
            total += timing.sls_time(
                spec.name,
                spec.lookups_per_sample,
                spec.embedding_dim,
                batch_size,
                hit_ratio=hit,
                dtype_bytes=spec.dtype_bytes,
            ).seconds
        shard_seconds.append(total)

    # Failover: walk each shard's copy list; every dead copy tried costs
    # one extra round trip, and a shard with no live copy drops out.
    failover_hops = [0] * plan.num_shards
    lost_shards: set[int] = set()
    if replication is not None:
        if replication.plan != plan:
            raise ValueError(
                "replication plan was built for a different shard plan"
            )
        if copy_available is None:
            copy_available = [
                [True] * replication.replication_factor
                for _ in range(plan.num_shards)
            ]
        if len(copy_available) != plan.num_shards:
            raise ValueError("copy_available must cover every shard")
        for shard in range(plan.num_shards):
            avail = list(copy_available[shard])
            if len(avail) != replication.replication_factor:
                raise ValueError("copy_available must cover every copy")
            live = [i for i, up in enumerate(avail) if up]
            if live:
                failover_hops[shard] = live[0]
            else:
                lost_shards.add(shard)
    lost_tables = tuple(
        sorted(i for shard in lost_shards for i in plan.tables_of(shard))
    )
    shard_path_seconds = [
        0.0
        if shard in lost_shards
        else failover_hops[shard] * network.rtt_s + shard_seconds[shard]
        for shard in range(plan.num_shards)
    ]

    # Pooled embedding vectors travel to the aggregator (links in parallel,
    # so the largest single shard payload bounds the transfer).
    payloads = []
    for shard in range(plan.num_shards):
        if shard in lost_shards:
            continue
        dims = sum(sls_specs[i].embedding_dim for i in plan.tables_of(shard))
        payloads.append(batch_size * dims * 4)
    network_seconds = (
        max(network.transfer_s(p) for p in payloads)
        if plan.num_shards > 1 and payloads
        else 0.0
    )

    dense_seconds = sum(
        timing.op_time(spec, batch_size).seconds
        for spec in specs
        if spec.op_type != OP_SLS
    )
    result = DistributedLatency(
        model_name=config.name,
        num_shards=plan.num_shards,
        batch_size=batch_size,
        slowest_shard_seconds=max(shard_path_seconds),
        network_seconds=network_seconds,
        dense_seconds=dense_seconds,
        failover_hops=sum(failover_hops),
        lost_tables=lost_tables,
    )

    recorder = as_tracer(tracer)
    if recorder.enabled:
        aggregator_track = plan.num_shards
        recorder.set_track_name(aggregator_track, "aggregator")
        fanout_id = recorder.begin(
            "serving.shard.fanout",
            0.0,
            track=aggregator_track,
            num_shards=plan.num_shards,
            batch_size=batch_size,
        )
        for shard, shard_s in enumerate(shard_path_seconds):
            recorder.set_track_name(shard, f"shard {shard}")
            recorder.complete(
                "serving.shard.sls",
                0.0,
                shard_s,
                parent_id=fanout_id,
                track=shard,
                tables=len(plan.tables_of(shard)),
            )
        if replication is not None:
            for shard in range(plan.num_shards):
                if shard in lost_shards:
                    recorder.instant(
                        "serving.domains.loss", 0.0, track=shard, shard=shard
                    )
                elif failover_hops[shard]:
                    recorder.instant(
                        "serving.domains.failover",
                        0.0,
                        track=shard,
                        hops=failover_hops[shard],
                    )
        gather_seconds = result.slowest_shard_seconds
        dense_begin_seconds = gather_seconds + network_seconds
        if network_seconds > 0:
            recorder.complete(
                "serving.shard.network",
                gather_seconds,
                dense_begin_seconds,
                parent_id=fanout_id,
                track=aggregator_track,
            )
        recorder.complete(
            "serving.shard.dense",
            dense_begin_seconds,
            result.total_seconds,
            parent_id=fanout_id,
            track=aggregator_track,
        )
        recorder.end(fanout_id, result.total_seconds)
    return result


def sharding_sweep(
    server: ServerSpec,
    config: ModelConfig,
    batch_size: int,
    shard_counts: list[int],
    network: NetworkConfig = NetworkConfig(),
) -> list[DistributedLatency]:
    """Latency across shard counts (the scaling curve)."""
    return [
        distributed_latency(
            server, config, batch_size, shard_tables(config, n), network
        )
        for n in shard_counts
    ]


# ------------------------------------------------- partial fan-out quality


def partial_fanout_config(
    config: ModelConfig, lost_tables: Sequence[int]
) -> ModelConfig:
    """The model actually served when ``lost_tables`` are unreachable.

    Each lost table's sparse lookups collapse to a single pooled
    fallback vector (the cached default embedding every production stack
    keeps warm), mirroring how
    :func:`~repro.serving.overload.truncate_lookups` models degraded mode
    — so the quality price flows through the same
    :func:`~repro.serving.faults.degraded_quality` machinery.
    """
    lost = sorted(set(lost_tables))
    if not lost:
        return config
    if lost[0] < 0 or lost[-1] >= len(config.embedding_tables):
        raise ValueError(
            f"lost tables {lost} outside model's "
            f"{len(config.embedding_tables)} tables"
        )
    lost_set = set(lost)
    tables = tuple(
        replace(t, lookups_per_sample=1) if i in lost_set else t
        for i, t in enumerate(config.embedding_tables)
    )
    return ModelConfig(
        name=f"{config.name}-partial{len(lost)}",
        model_class=config.model_class,
        dense_features=config.dense_features,
        bottom_mlp=config.bottom_mlp,
        embedding_tables=tables,
        top_mlp=config.top_mlp,
        dtype=config.dtype,
        interaction=config.interaction,
    )


def degraded_fanout_quality(
    config: ModelConfig,
    lost_tables: Sequence[int],
    num_candidates: int = 200,
    k: int = 10,
    seed: int = 0,
) -> dict[str, float]:
    """Ranking cost (recall@k / NDCG@k) of a partial fan-out read.

    Prices serving :func:`partial_fanout_config` instead of the full
    model through :func:`~repro.serving.faults.degraded_quality` — an
    empty ``lost_tables`` scores a perfect 1.0/1.0.
    """
    return degraded_quality(
        config,
        partial_fanout_config(config, lost_tables),
        num_candidates=num_candidates,
        k=k,
        seed=seed,
    )


# ------------------------------------------------------- shard recovery


def _covers(intervals: Sequence[tuple[float, float]], t_s: float) -> bool:
    """True when ``t_s`` falls inside any half-open interval."""
    return any(start_s <= t_s < end_s for start_s, end_s in intervals)


@dataclass(frozen=True)
class ShardRecovery:
    """One shard copy re-replicated (or cold-reloaded) after a loss.

    ``source_host`` is the live copy that streamed the data, or ``None``
    when no copy survived and the shard was reloaded from cold storage.
    """

    shard: int
    copy_index: int
    target_host: int
    source_host: int | None
    lost_at_s: float
    start_s: float
    done_s: float
    shard_bytes: int


@dataclass(frozen=True)
class ServiceSegment:
    """One piecewise-constant window of shard serving state.

    Attributes:
        start_s / end_s: the window on the DES clock.
        max_failover_hops: worst first-live-copy index across shards —
            the extra round trips the slowest shard read pays.
        blackout: some shard has no live copy (reads go partial).
        lost_tables: tables unreachable during the window.
    """

    start_s: float
    end_s: float
    max_failover_hops: int
    blackout: bool
    lost_tables: tuple[int, ...]


@dataclass(frozen=True)
class RecoveryTimeline:
    """Copy availability over time plus the re-replication transfers.

    Built by :func:`recovery_timeline`; queries are pure functions of the
    committed state, so the timeline composes with the DES loops
    without touching them.
    """

    replication: ReplicationPlan
    bandwidth_bytes_per_s: float
    transfers: tuple[ShardRecovery, ...]
    copy_down_intervals: tuple[
        tuple[tuple[tuple[float, float], ...], ...], ...
    ]
    aborted_transfers: int = 0

    @property
    def time_to_full_redundancy_s(self) -> float:
        """When the last lost copy is back (0 when nothing was lost)."""
        return max((t.done_s for t in self.transfers), default=0.0)

    def copy_is_down(self, shard: int, copy_index: int, t_s: float) -> bool:
        """True while the copy is crashed, partitioned or re-streaming."""
        return _covers(self.copy_down_intervals[shard][copy_index], t_s)

    def availability_at(self, t_s: float) -> tuple[tuple[bool, ...], ...]:
        """``copy_available`` matrix for :func:`distributed_latency`."""
        return tuple(
            tuple(
                not self.copy_is_down(shard, copy_index, t_s)
                for copy_index in range(self.replication.replication_factor)
            )
            for shard in range(self.replication.plan.num_shards)
        )

    def service_segments(self, horizon_s: float) -> tuple[ServiceSegment, ...]:
        """Piecewise-constant serving state over ``[0, horizon_s)``.

        Segments with identical state are coalesced; a segment is a
        *blackout* when at least one shard has no live copy.
        """
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        bounds = {0.0, horizon_s}
        for per_copy in self.copy_down_intervals:
            for intervals in per_copy:
                for start_s, end_s in intervals:
                    if 0.0 < start_s < horizon_s:
                        bounds.add(start_s)
                    if 0.0 < end_s < horizon_s:
                        bounds.add(end_s)
        ordered = sorted(bounds)
        plan = self.replication.plan
        segments: list[ServiceSegment] = []
        for left_s, right_s in zip(ordered, ordered[1:]):
            mid_s = 0.5 * (left_s + right_s)
            hops = 0
            blackout = False
            lost: list[int] = []
            for shard in range(plan.num_shards):
                if not plan.tables_of(shard):
                    continue  # an empty shard serves nothing
                live = [
                    c
                    for c in range(self.replication.replication_factor)
                    if not self.copy_is_down(shard, c, mid_s)
                ]
                if live:
                    hops = max(hops, live[0])
                else:
                    blackout = True
                    lost.extend(plan.tables_of(shard))
            state = (hops, blackout, tuple(sorted(lost)))
            if segments and (
                segments[-1].max_failover_hops,
                segments[-1].blackout,
                segments[-1].lost_tables,
            ) == state:
                segments[-1] = replace(segments[-1], end_s=right_s)
            else:
                segments.append(
                    ServiceSegment(
                        start_s=left_s,
                        end_s=right_s,
                        max_failover_hops=state[0],
                        blackout=state[1],
                        lost_tables=state[2],
                    )
                )
        return tuple(segments)

    def blackout_s(self, horizon_s: float) -> float:
        """Total time within the horizon some shard had no live copy."""
        return sum(
            seg.end_s - seg.start_s
            for seg in self.service_segments(horizon_s)
            if seg.blackout
        )


def recovery_timeline(
    server: ServerSpec,
    config: ModelConfig,
    replication: ReplicationPlan,
    topology: FleetTopology,
    events: DomainSchedule,
    network: NetworkConfig = NetworkConfig(),
    tracer: Tracer | NullTracer | None = None,
    metrics: MetricsRegistry | None = None,
    metrics_labels: dict[str, str] | None = None,
) -> RecoveryTimeline:
    """Re-replicate crash-lost shard copies on the DES clock.

    Semantics (Kalamkar et al., arXiv:2005.04680 — shard recovery is a
    bulk transfer, not a restart):

    * A :class:`~repro.serving.domains.DomainCrash` destroys every copy
      on the domain's hosts; each host restarts *cold* at crash end and
      re-streams its copies from the shard's first live copy at
      ``min(NIC, DRAM)`` bandwidth, serializing on both endpoints' NICs.
      With no live copy the shard reloads from cold storage at the same
      bandwidth (so time-to-full-redundancy is always finite).
    * A :class:`~repro.serving.domains.DomainPartition` leaves state
      intact: copies inside are unavailable for the interval and live
      again the instant it heals — no transfer.
    * A crash landing before a copy finished re-streaming aborts the
      transfer and restarts it after the new outage (counted in
      ``aborted_transfers``). Source selection uses crash-interval
      knowledge; a source itself mid-restore can be chosen optimistically
      when losses interleave tightly.
    """
    events.validate(topology)
    replication.validate(topology)
    bandwidth_bytes_per_s = min(
        network.bandwidth_bytes_per_s, server.dram_bw_bytes_per_s
    )
    plan = replication.plan
    shard_bytes = [
        sum(
            config.embedding_tables[i].storage_bytes(config.dtype)
            for i in plan.tables_of(shard)
        )
        for shard in range(plan.num_shards)
    ]

    host_crash_intervals: dict[int, tuple[tuple[float, float], ...]] = {}
    raw_crashes: dict[int, list[tuple[float, float]]] = {}
    for crash in events.crashes:
        for host in topology.hosts_in(crash.kind, crash.domain_id):
            raw_crashes.setdefault(host, []).append(
                (crash.at_s, crash.at_s + crash.downtime_s)
            )
    for host, intervals in raw_crashes.items():
        host_crash_intervals[host] = tuple(_merge_intervals(intervals))
    host_partition_intervals: dict[int, tuple[tuple[float, float], ...]] = {}
    raw_partitions: dict[int, list[tuple[float, float]]] = {}
    for part in events.partitions:
        for host in topology.hosts_in(part.kind, part.domain_id):
            raw_partitions.setdefault(host, []).append(
                (part.start_s, part.start_s + part.duration_s)
            )
    for host, intervals in raw_partitions.items():
        host_partition_intervals[host] = tuple(_merge_intervals(intervals))

    copies = [
        (shard, copy_index)
        for shard in range(plan.num_shards)
        for copy_index in range(replication.replication_factor)
    ]
    committed: dict[tuple[int, int], list[tuple[float, float]]] = {
        key: [] for key in copies
    }
    consumed_until: dict[tuple[int, int], float] = {key: 0.0 for key in copies}
    episodes_by_copy = {
        key: host_crash_intervals.get(replication.copy_hosts[key[0]][key[1]], ())
        for key in copies
    }

    def source_for(shard: int, copy_index: int, t_s: float) -> int | None:
        for other in range(replication.replication_factor):
            if other == copy_index:
                continue
            host = replication.copy_hosts[shard][other]
            if _covers(host_crash_intervals.get(host, ()), t_s):
                continue
            if _covers(host_partition_intervals.get(host, ()), t_s):
                continue
            if _covers(committed[(shard, other)], t_s):
                continue
            return host
        return None

    busy_until_s: dict[int, float] = {}
    transfers: list[ShardRecovery] = []
    aborted = 0
    episode_queue = sorted(
        (interval[0], interval[1], shard, copy_index)
        for (shard, copy_index), intervals in episodes_by_copy.items()
        for interval in intervals
    )
    for crash_start_s, crash_end_s, shard, copy_index in episode_queue:
        key = (shard, copy_index)
        if crash_start_s < consumed_until[key]:
            continue  # merged into an earlier episode of this copy
        target_host = replication.copy_hosts[shard][copy_index]
        restart_s = crash_end_s
        while True:
            source_host = source_for(shard, copy_index, restart_s)
            start_s = max(restart_s, busy_until_s.get(target_host, 0.0))
            if source_host is not None:
                start_s = max(start_s, busy_until_s.get(source_host, 0.0))
            done_s = start_s + shard_bytes[shard] / bandwidth_bytes_per_s
            follow = next(
                (
                    iv
                    for iv in episodes_by_copy[key]
                    if crash_start_s < iv[0] < done_s
                    and iv[0] >= consumed_until[key]
                ),
                None,
            )
            if follow is None:
                break
            # The host crashed again mid-restream: abort, restart after.
            aborted += 1
            restart_s = follow[1]
            consumed_until[key] = follow[1]
        busy_until_s[target_host] = done_s
        if source_host is not None:
            busy_until_s[source_host] = done_s
        committed[key].append((crash_start_s, done_s))
        consumed_until[key] = done_s
        transfers.append(
            ShardRecovery(
                shard=shard,
                copy_index=copy_index,
                target_host=target_host,
                source_host=source_host,
                lost_at_s=crash_start_s,
                start_s=start_s,
                done_s=done_s,
                shard_bytes=shard_bytes[shard],
            )
        )

    copy_down_intervals = tuple(
        tuple(
            tuple(
                _merge_intervals(
                    committed[(shard, copy_index)]
                    + list(
                        host_partition_intervals.get(
                            replication.copy_hosts[shard][copy_index], ()
                        )
                    )
                )
            )
            for copy_index in range(replication.replication_factor)
        )
        for shard in range(plan.num_shards)
    )
    timeline = RecoveryTimeline(
        replication=replication,
        bandwidth_bytes_per_s=bandwidth_bytes_per_s,
        transfers=tuple(transfers),
        copy_down_intervals=copy_down_intervals,
        aborted_transfers=aborted,
    )

    recorder = as_tracer(tracer)
    if recorder.enabled:
        for transfer in timeline.transfers:
            recorder.instant(
                "serving.domains.loss",
                transfer.lost_at_s,
                track=transfer.target_host,
                shard=transfer.shard,
                copy=transfer.copy_index,
            )
            recorder.complete(
                "serving.domains.transfer",
                transfer.start_s,
                transfer.done_s,
                track=transfer.target_host,
                shard=transfer.shard,
                copy=transfer.copy_index,
                source=-1 if transfer.source_host is None else transfer.source_host,
                payload_bytes=transfer.shard_bytes,
            )
    if metrics is not None:
        labels = dict(metrics_labels or {})
        metrics.counter("serving.domains.lost_copies", **labels).inc(
            len(timeline.transfers)
        )
        metrics.counter("serving.domains.transfers", **labels).inc(
            sum(1 for t in timeline.transfers if t.source_host is not None)
        )
        metrics.counter("serving.domains.cold_reloads", **labels).inc(
            sum(1 for t in timeline.transfers if t.source_host is None)
        )
        metrics.counter("serving.domains.aborted_transfers", **labels).inc(aborted)
        metrics.gauge("serving.domains.time_to_redundancy_s", **labels).set(
            timeline.time_to_full_redundancy_s
        )
    return timeline
